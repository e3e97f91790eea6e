// Example server is a minimal Go client for cmd/relmaxd, walking both
// serving surfaces: the synchronous /v1 endpoints and the /v2 job API —
// submit a job, poll its status, stream its NDJSON progress events,
// demonstrate a cache hit on resubmission, cancel a long-running job, and
// read /metrics — plus the dataset lifecycle: create a dataset at
// runtime, solve on it, mutate its graph and observe the re-solve missing
// the cache on the new epoch.
//
// Start a server first:
//
//	go run ./cmd/relmaxd -addr :8080 -dataset lastfm -scale 0.05 -cache 256
//
// then:
//
//	go run ./examples/server -addr http://localhost:8080
//
// The same walkthrough with curl:
//
//	curl -X POST -d '{"kind":"solve","s":0,"t":39,"k":2}' localhost:8080/v2/jobs
//	curl localhost:8080/v2/jobs/<id>            # poll status → result
//	curl localhost:8080/v2/jobs/<id>/events     # NDJSON progress stream
//	curl -X DELETE localhost:8080/v2/jobs/<id>  # cancel
//	curl localhost:8080/v2/datasets             # list datasets + epochs
//	curl -X POST -d '{"name":"demo","edge_list":"ugraph undirected 3 3\n0 1 0.9\n1 2 0.8\n0 2 0.05\n"}' \
//	     localhost:8080/v2/datasets             # create at runtime
//	curl -X POST -d '{"mutations":[{"op":"set-prob","u":1,"v":2,"p":0.01}]}' \
//	     localhost:8080/v2/datasets/demo/mutations  # mutate → new epoch
//	curl -X DELETE localhost:8080/v2/datasets/demo  # close
//	curl localhost:8080/metrics                 # incl. per-dataset breakdown
//
// Start the server with -data-dir to make datasets durable: mutations
// are WAL-logged and fsynced before acknowledgment, and a restart (even
// after kill -9) recovers every dataset at its exact committed epoch —
// see the durability section of scripts/relmaxd_smoke.sh, which mutates a
// -data-dir dataset, stops the server and checks the restart.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "relmaxd base URL")
	s := flag.Int("s", 0, "source node")
	t := flag.Int("t", 39, "target node")
	k := flag.Int("k", 2, "edge budget")
	timeout := flag.Duration("timeout", 30*time.Second, "client-side deadline per call")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var health struct {
		Status   string                    `json:"status"`
		Datasets map[string]map[string]any `json:"datasets"`
	}
	if err := call(ctx, http.MethodGet, *addr+"/healthz", nil, &health); err != nil {
		fail(err)
	}
	fmt.Printf("server %s, serving %d dataset(s)\n", health.Status, len(health.Datasets))

	// --- /v2: submit a solve job and poll it to completion. ---
	submit := map[string]any{"kind": "solve", "s": *s, "t": *t, "method": "be", "k": *k, "r": 8, "l": 8}
	job, err := submitJob(ctx, *addr, submit)
	if err != nil {
		fail(err)
	}
	fmt.Printf("submitted job %s (%s)\n", job.ID, job.Status)
	final, err := pollJob(ctx, *addr, job.ID)
	if err != nil {
		fail(err)
	}
	var solve struct {
		Edges []struct {
			U, V int32
			P    float64
		} `json:"edges"`
		Base  float64 `json:"base"`
		After float64 `json:"after"`
		Gain  float64 `json:"gain"`
	}
	if err := json.Unmarshal(final.Result, &solve); err != nil {
		fail(err)
	}
	fmt.Printf("job %s %s: reliability %.4f -> %.4f (gain %.4f)\n",
		final.ID, final.Status, solve.Base, solve.After, solve.Gain)
	for _, e := range solve.Edges {
		fmt.Printf("  add %d -> %d (p=%.2f)\n", e.U, e.V, e.P)
	}

	// Replay the job's progress events from the NDJSON stream.
	if err := streamEvents(ctx, *addr, job.ID); err != nil {
		fail(err)
	}

	// Resubmitting the identical query is a cache hit: same fingerprint,
	// bit-identical result, no recomputation.
	again, err := submitJob(ctx, *addr, submit)
	if err != nil {
		fail(err)
	}
	againFinal, err := pollJob(ctx, *addr, again.ID)
	if err != nil {
		fail(err)
	}
	fmt.Printf("resubmitted as %s: status %s, cache_hit=%v\n", again.ID, againFinal.Status, againFinal.CacheHit)

	// --- Dataset lifecycle: create → solve → mutate → re-solve. ---
	var created struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
		N     int    `json:"n"`
		M     int    `json:"m"`
	}
	createReq := map[string]any{
		"name":      "demo",
		"edge_list": "ugraph undirected 3 3\n0 1 0.9\n1 2 0.8\n0 2 0.05\n",
	}
	if err := call(ctx, http.MethodPost, *addr+"/v2/datasets", createReq, &created); err != nil {
		fail(err)
	}
	fmt.Printf("created dataset %q: n=%d m=%d epoch=%d\n", created.Name, created.N, created.M, created.Epoch)

	demoQuery := map[string]any{"dataset": "demo", "kind": "estimate", "s": 0, "t": 2}
	solveOnDemo := func() (float64, bool) {
		job, err := submitJob(ctx, *addr, demoQuery)
		if err != nil {
			fail(err)
		}
		final, err := pollJob(ctx, *addr, job.ID)
		if err != nil {
			fail(err)
		}
		var est struct {
			Reliability float64 `json:"reliability"`
		}
		if err := json.Unmarshal(final.Result, &est); err != nil {
			fail(err)
		}
		return est.Reliability, final.CacheHit
	}
	rel1, _ := solveOnDemo()
	rel2, hit := solveOnDemo()
	fmt.Printf("demo estimate: %.4f (repeat %.4f, cache_hit=%v)\n", rel1, rel2, hit)

	// Mutate the graph: the epoch advances, in-flight work keeps its
	// pinned snapshot, and the same query becomes a new fingerprint.
	var mutated struct {
		Epoch   uint64 `json:"epoch"`
		Applied int    `json:"applied"`
	}
	mutReq := map[string]any{"mutations": []map[string]any{
		{"op": "set-prob", "u": 1, "v": 2, "p": 0.01},
	}}
	if err := call(ctx, http.MethodPost, *addr+"/v2/datasets/demo/mutations", mutReq, &mutated); err != nil {
		fail(err)
	}
	fmt.Printf("mutated demo: %d mutation(s), epoch %d -> %d\n", mutated.Applied, created.Epoch, mutated.Epoch)
	rel3, hit3 := solveOnDemo()
	fmt.Printf("re-solve after mutation: %.4f (cache_hit=%v — fresh epoch, fresh fingerprint)\n", rel3, hit3)

	if err := call(ctx, http.MethodDelete, *addr+"/v2/datasets/demo", nil, &struct{}{}); err != nil {
		fail(err)
	}
	fmt.Println("closed dataset demo")

	// Submit a deliberately long job and cancel it via DELETE.
	slow, err := submitJob(ctx, *addr, map[string]any{"kind": "estimate", "s": *s, "t": *t, "z": 1_000_000})
	if err != nil {
		fail(err)
	}
	if err := call(ctx, http.MethodDelete, *addr+"/v2/jobs/"+slow.ID, nil, &struct{}{}); err != nil {
		fail(err)
	}
	cancelled, err := pollJob(ctx, *addr, slow.ID)
	if err != nil {
		fail(err)
	}
	fmt.Printf("job %s after DELETE: %s\n", slow.ID, cancelled.Status)

	// --- /v1 still serves synchronously (as a shim over the same jobs). ---
	estReq := map[string]any{"pairs": [][2]int{{*s, *t}, {*s, *s}}}
	var est struct {
		Reliabilities []float64 `json:"reliabilities"`
	}
	if err := call(ctx, http.MethodPost, *addr+"/v1/estimate", estReq, &est); err != nil {
		fail(err)
	}
	fmt.Printf("estimates: %v\n", est.Reliabilities)

	var metrics struct {
		Requests struct {
			Total uint64 `json:"total"`
		} `json:"requests"`
		Cache struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
		Jobs struct {
			Completed uint64 `json:"completed"`
			Cancelled uint64 `json:"cancelled"`
		} `json:"jobs"`
	}
	if err := call(ctx, http.MethodGet, *addr+"/metrics", nil, &metrics); err != nil {
		fail(err)
	}
	fmt.Printf("metrics: %d requests, %d cache hits, %d jobs completed, %d cancelled\n",
		metrics.Requests.Total, metrics.Cache.Hits, metrics.Jobs.Completed, metrics.Jobs.Cancelled)
}

// jobJSON mirrors the /v2/jobs payload.
type jobJSON struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

func submitJob(ctx context.Context, addr string, body map[string]any) (jobJSON, error) {
	var job jobJSON
	err := call(ctx, http.MethodPost, addr+"/v2/jobs", body, &job)
	return job, err
}

func pollJob(ctx context.Context, addr, id string) (jobJSON, error) {
	for {
		var job jobJSON
		if err := call(ctx, http.MethodGet, addr+"/v2/jobs/"+id, nil, &job); err != nil {
			return job, err
		}
		switch job.Status {
		case "done", "cancelled", "failed":
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// streamEvents prints the job's NDJSON progress stream line by line.
func streamEvents(ctx context.Context, addr, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Printf("  event: %s\n", sc.Text())
	}
	return sc.Err()
}

func call(ctx context.Context, method, url string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "example/server:", err)
	os.Exit(1)
}
