package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// testServerV2 builds a serving fixture with the full v2 configuration:
// result cache on, bounded job queue, metrics.
func testServerV2(t *testing.T, engOpts ...repro.EngineOption) (*httptest.Server, *server) {
	t.Helper()
	opts := append([]repro.EngineOption{
		repro.WithSampleSize(200), repro.WithSeed(7), repro.WithWorkers(2),
		repro.WithSolverDefaults(repro.Options{K: 2, Z: 200, Seed: 7, R: 8, L: 8, Workers: 2}),
		repro.WithResultCache(32),
	}, engOpts...)
	srv := newServer(testCatalog(t, opts...), 30*time.Second)
	srv.logf = t.Logf
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// pollJob polls GET /v2/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body := getJSON(t, base+"/v2/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("job status %d: %v", status, body)
		}
		switch body["status"] {
		case "done", "cancelled", "failed":
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %v", id, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func submitJob(t *testing.T, base, body string) map[string]any {
	t.Helper()
	status, raw := post(t, base+"/v2/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	var resp map[string]any
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp["id"] == "" || resp["id"] == nil {
		t.Fatalf("submit response has no id: %s", raw)
	}
	return resp
}

// TestV2SolveJobRoundTrip: submit → poll → result identical to the
// synchronous /v1 payload; an identical resubmission is a recorded cache
// hit with a bit-identical result.
func TestV2SolveJobRoundTrip(t *testing.T) {
	ts, _ := testServerV2(t)
	_, v1raw := post(t, ts.URL+"/v1/solve", `{"s":0,"t":39,"method":"be"}`)
	var v1 map[string]any
	if err := json.Unmarshal(v1raw, &v1); err != nil {
		t.Fatal(err)
	}

	sub := submitJob(t, ts.URL, `{"kind":"solve","s":0,"t":39,"method":"be"}`)
	final := pollJob(t, ts.URL, sub["id"].(string))
	if final["status"] != "done" {
		t.Fatalf("job did not succeed: %v", final)
	}
	result := final["result"].(map[string]any)
	// The v1 call warmed the cache, so this job should already be a hit —
	// but first prove the payloads agree modulo timing.
	delete(result, "timing")
	delete(v1, "timing")
	jr, _ := json.Marshal(result)
	jv, _ := json.Marshal(v1)
	if !bytes.Equal(jr, jv) {
		t.Fatalf("v2 result diverged from v1 payload:\nv2 %s\nv1 %s", jr, jv)
	}
	if final["cache_hit"] != true {
		t.Fatalf("identical query was not a cache hit: %v", final)
	}

	// A fresh fingerprint recomputes (no hit), then its twin hits.
	subCold := submitJob(t, ts.URL, `{"kind":"solve","s":0,"t":39,"method":"be","k":1}`)
	cold := pollJob(t, ts.URL, subCold["id"].(string))
	if cold["status"] != "done" || cold["cache_hit"] == true {
		t.Fatalf("cold query mis-reported: %v", cold)
	}
	subWarm := submitJob(t, ts.URL, `{"kind":"solve","s":0,"t":39,"method":"be","k":1}`)
	warm := pollJob(t, ts.URL, subWarm["id"].(string))
	if warm["status"] != "done" || warm["cache_hit"] != true {
		t.Fatalf("warm twin not a cache hit: %v", warm)
	}
	cr, _ := json.Marshal(cold["result"])
	wr, _ := json.Marshal(warm["result"])
	if !bytes.Equal(cr, wr) {
		t.Fatalf("cache hit not bit-identical:\ncold %s\nwarm %s", cr, wr)
	}
}

// TestV2AllKinds: every query kind round-trips through /v2/jobs.
func TestV2AllKinds(t *testing.T) {
	ts, _ := testServerV2(t)
	cases := []struct {
		name, body string
		check      func(t *testing.T, result map[string]any)
	}{
		{"estimate", `{"kind":"estimate","s":0,"t":17}`, func(t *testing.T, r map[string]any) {
			if _, ok := r["reliability"].(float64); !ok {
				t.Fatalf("no reliability: %v", r)
			}
		}},
		{"estimate-many", `{"kind":"estimate-many","pairs":[[0,9],[4,4]]}`, func(t *testing.T, r map[string]any) {
			rels, ok := r["reliabilities"].([]any)
			if !ok || len(rels) != 2 || rels[1] != 1.0 {
				t.Fatalf("bad reliabilities: %v", r)
			}
		}},
		{"multi", `{"kind":"multi","sources":[0,1],"targets":[9,22],"method":"be"}`, func(t *testing.T, r map[string]any) {
			if r["aggregate"] != "avg" {
				t.Fatalf("bad multi result: %v", r)
			}
		}},
		{"total-budget", `{"kind":"total-budget","s":0,"t":39,"budget":1.0}`, func(t *testing.T, r map[string]any) {
			if _, ok := r["spent"].(float64); !ok {
				t.Fatalf("no spent: %v", r)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := submitJob(t, ts.URL, tc.body)
			final := pollJob(t, ts.URL, sub["id"].(string))
			if final["status"] != "done" {
				t.Fatalf("job failed: %v", final)
			}
			tc.check(t, final["result"].(map[string]any))
		})
	}
}

// TestV2CancelRunningJob: DELETE must land within one sample block and the
// job must finish "cancelled".
func TestV2CancelRunningJob(t *testing.T) {
	ts, _ := testServerV2(t)
	sub := submitJob(t, ts.URL, `{"kind":"estimate","s":0,"t":17,"z":1000000,"seed":99}`)
	id := sub["id"].(string)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := pollJob(t, ts.URL, id)
	if final["status"] != "cancelled" && final["status"] != "done" {
		t.Fatalf("job state after cancel: %v", final)
	}
	// DELETE on an unknown job is a 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-job cancel status %d", resp.StatusCode)
	}
}

// TestV2EventsStream: the NDJSON stream carries solver progress events in
// sequence order and terminates with a status line.
func TestV2EventsStream(t *testing.T) {
	ts, _ := testServerV2(t)
	sub := submitJob(t, ts.URL, `{"kind":"solve","s":0,"t":39,"method":"be","seed":31}`)
	id := sub["id"].(string)
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []map[string]any
	var final map[string]any
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line["done"] == true {
			final = line
			break
		}
		events = append(events, line)
	}
	if final == nil {
		t.Fatalf("stream ended without a final status line (got %d events)", len(events))
	}
	if final["status"] != "done" {
		t.Fatalf("final line: %v", final)
	}
	if len(events) == 0 {
		t.Fatal("no progress events streamed for a solve")
	}
	for i, ev := range events {
		if int(ev["seq"].(float64)) != i+1 {
			t.Fatalf("event %d out of order: %v", i, ev)
		}
	}
	// A post-hoc stream of a finished job replays events then terminates.
	resp2, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, err := countNDJSONLines(resp2)
	if err != nil {
		t.Fatal(err)
	}
	if replay != len(events)+1 {
		t.Fatalf("replay returned %d lines, want %d events + 1 status", replay, len(events))
	}
}

func countNDJSONLines(resp *http.Response) (int, error) {
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n, sc.Err()
}

// TestV2Overload: with a single worker slot and zero extra queue capacity,
// a second long job must be shed with 503 — and /v1 requests share the
// same bound.
func TestV2Overload(t *testing.T) {
	ts, _ := testServerV2(t, repro.WithMaxConcurrent(1), repro.WithQueueDepth(1))
	long := `{"kind":"estimate","s":0,"t":17,"z":1000000,"seed":1}`
	first := submitJob(t, ts.URL, long)
	second := submitJob(t, ts.URL, `{"kind":"estimate","s":1,"t":17,"z":1000000,"seed":2}`)
	status, raw := post(t, ts.URL+"/v2/jobs", `{"kind":"estimate","s":2,"t":17,"z":1000000,"seed":3}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503: %s", status, raw)
	}
	status, raw = post(t, ts.URL+"/v1/estimate", `{"pairs":[[0,9]]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("v1 overload status %d, want 503: %s", status, raw)
	}
	for _, sub := range []map[string]any{first, second} {
		id := sub["id"].(string)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		pollJob(t, ts.URL, id)
	}
}

// TestV2Metrics: the metrics endpoint aggregates request counters, job
// outcomes and cache statistics.
func TestV2Metrics(t *testing.T) {
	ts, _ := testServerV2(t)
	post(t, ts.URL+"/v1/estimate", `{"pairs":[[0,9]]}`)
	post(t, ts.URL+"/v1/estimate", `{"pairs":[[0,9]]}`) // cache hit
	status, body := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	reqs := body["requests"].(map[string]any)
	if reqs["total"].(float64) < 2 {
		t.Fatalf("request total: %v", body)
	}
	cache := body["cache"].(map[string]any)
	if cache["hits"].(float64) < 1 {
		t.Fatalf("cache hits missing: %v", cache)
	}
	jobs := body["jobs"].(map[string]any)
	if jobs["completed"].(float64) < 2 {
		t.Fatalf("job completions missing: %v", jobs)
	}
	lat := body["latency_ms"].(map[string]any)
	if lat["window"].(float64) < 2 || lat["p50"].(float64) < 0 {
		t.Fatalf("latency window missing: %v", lat)
	}
	if _, ok := body["qps"].(map[string]any); !ok {
		t.Fatalf("qps block missing: %v", body)
	}
}

// TestLimitsAreFlags: the ceilings come from the server configuration, not
// compile-time constants.
func TestLimitsAreFlags(t *testing.T) {
	catalog := testCatalog(t, repro.WithSampleSize(200), repro.WithSeed(7), repro.WithWorkers(2))
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	srv.limits = limits{MaxZ: 100, MaxK: 1, MaxRL: 10, MaxPairs: 2, MaxMutations: 2, MaxBodyBytes: 1 << 20}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	cases := []struct{ name, path, body string }{
		{"zeta over 1", "/v1/solve", `{"s":0,"t":39,"zeta":1.5}`},
		{"v2 zeta over 1", "/v2/jobs", `{"kind":"solve","s":0,"t":39,"zeta":1.5}`},
		{"negative zeta", "/v1/solve", `{"s":0,"t":39,"zeta":-0.5}`},
		{"k over custom ceiling", "/v1/solve", `{"s":0,"t":39,"k":2}`},
		{"z over custom ceiling", "/v1/solve", `{"s":0,"t":39,"z":101}`},
		{"pairs over custom ceiling", "/v1/estimate", `{"pairs":[[0,1],[0,2],[0,3]]}`},
		{"v2 k over custom ceiling", "/v2/jobs", `{"kind":"solve","s":0,"t":39,"k":2}`},
		{"v2 pairs over custom ceiling", "/v2/jobs", `{"kind":"estimate-many","pairs":[[0,1],[0,2],[0,3]]}`},
		{"v2 mutations over custom ceiling", "/v2/datasets/lastfm/mutations",
			`{"mutations":[{"op":"set-prob","u":0,"v":1,"p":0.5},{"op":"set-prob","u":0,"v":2,"p":0.5},{"op":"set-prob","u":0,"v":3,"p":0.5}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, raw)
			}
		})
	}
	// The body cap is enforced through MaxBytesReader (fresh server so the
	// cap is in place before it starts serving).
	tiny := newServer(catalog, 30*time.Second)
	tiny.logf = t.Logf
	tiny.limits = defaultLimits()
	tiny.limits.MaxBodyBytes = 16
	tts := httptest.NewServer(tiny.handler())
	t.Cleanup(tts.Close)
	status, _ := post(t, tts.URL+"/v1/solve", `{"s":0,"t":39,"method":"be","k":2}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", status)
	}
}

// TestV2UnknownKindAndJob: structural errors map to 400/404.
func TestV2UnknownKindAndJob(t *testing.T) {
	ts, _ := testServerV2(t)
	status, raw := post(t, ts.URL+"/v2/jobs", `{"kind":"bogus","s":0,"t":1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d: %s", status, raw)
	}
	status, body := getJSON(t, ts.URL+"/v2/jobs/nope")
	if status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d: %v", status, body)
	}
}

// TestNegativeHopLimit: h < 0 is rejected with 400 on both surfaces, like
// negative r and l, instead of being served as a silent alias of h=0.
func TestNegativeHopLimit(t *testing.T) {
	ts := testServer(t)
	for path, body := range map[string]string{
		"/v1/solve": `{"s":0,"t":5,"h":-1}`,
		"/v2/jobs":  `{"kind":"solve","s":0,"t":5,"h":-3}`,
	} {
		if status, raw := post(t, ts.URL+path, body); status != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d (%s), want 400", path, body, status, raw)
		}
	}
}
