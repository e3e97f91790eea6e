package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
)

// replOpts are the engine defaults every node in a test cluster shares —
// the replication contract requires identical flags on primary and replica
// for bit-identical answers.
func replOpts() []repro.EngineOption {
	return []repro.EngineOption{
		repro.WithSamplerKind("rss"),
		repro.WithSampleSize(150),
		repro.WithSeed(7),
		repro.WithWorkers(2),
		repro.WithResultCache(32),
		repro.WithSolverDefaults(repro.Options{K: 2, Z: 150, Seed: 7, R: 8, L: 8, Workers: 2}),
	}
}

// newReplPrimary boots a durable primary serving the lastfm fixture with a
// replication tap on its store.
func newReplPrimary(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	g, err := repro.LoadDataset("lastfm", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	taps := newTapRegistry()
	catalog := repro.NewCatalog(replOpts()...)
	if err := catalog.SetStorage(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	catalog.SetStoreWrapper(taps.wrap)
	if _, err := catalog.Create("lastfm", g); err != nil {
		t.Fatal(err)
	}
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	srv.taps = taps
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// newReplReplica boots a read replica following the primary, with a fast
// sync interval so tests converge quickly.
func newReplReplica(t *testing.T, primaryURL string) (*httptest.Server, *server) {
	t.Helper()
	return newReplReplicaEvery(t, primaryURL, 50*time.Millisecond)
}

// newReplReplicaEvery boots a read replica that re-lists the primary's
// datasets every interval (and once at start).
func newReplReplicaEvery(t *testing.T, primaryURL string, interval time.Duration) (*httptest.Server, *server) {
	t.Helper()
	catalog := repro.NewCatalog(replOpts()...)
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	srv.role = roleReplica
	srv.replicas = newReplicaManager(srv, primaryURL, interval)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.replicas.run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// epochOf reads a dataset's epoch off a node's /healthz, or false if the
// node does not serve it.
func epochOf(t *testing.T, base, dataset string) (uint64, bool) {
	t.Helper()
	status, body := getJSON(t, base+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", status)
	}
	datasets, _ := body["datasets"].(map[string]any)
	info, ok := datasets[dataset].(map[string]any)
	if !ok {
		return 0, false
	}
	return uint64(info["epoch"].(float64)), true
}

// waitEpoch polls until the node serves the dataset at exactly epoch.
func waitEpoch(t *testing.T, base, dataset string, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if got, ok := epochOf(t, base, dataset); ok && got == epoch {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	got, ok := epochOf(t, base, dataset)
	t.Fatalf("node %s never reached %s@%d (have %d, served=%v)", base, dataset, epoch, got, ok)
}

// mutate applies one set-prob mutation through a node's HTTP surface and
// returns the new epoch.
func mutate(t *testing.T, base string, p float64) uint64 {
	t.Helper()
	body := fmt.Sprintf(`{"mutations":[{"op":"set-prob","u":%d,"v":%d,"p":%g}]}`,
		lastfmEdge.U, lastfmEdge.V, p)
	status, data := post(t, base+"/v2/datasets/lastfm/mutations", body)
	if status != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", status, data)
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Epoch
}

// lastfmEdge is one edge known to exist in the lastfm fixture at scale
// 0.03 / seed 5, resolved once.
var lastfmEdge = func() repro.Edge {
	g, err := repro.LoadDataset("lastfm", 0.03, 5)
	if err != nil {
		panic(err)
	}
	return g.Edges()[0]
}()

// queryStripped posts a query and returns (status, payload minus the
// timing block, X-Repro-Epoch header).
func queryStripped(t *testing.T, url, body string) (int, map[string]any, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	delete(payload, "timing")
	return resp.StatusCode, payload, resp.Header.Get("X-Repro-Epoch")
}

// TestReplicaEndToEnd drives the whole primary→replica pipeline over real
// HTTP: bootstrap, live batch streaming, bit-identical reads at the same
// epoch, read-only gating, metrics on both ends, and dataset retirement
// when the primary drops the dataset.
func TestReplicaEndToEnd(t *testing.T) {
	primary, _ := newReplPrimary(t)
	epoch := mutate(t, primary.URL, 0.31) // pre-bootstrap history

	replica, _ := newReplReplica(t, primary.URL)
	waitEpoch(t, replica.URL, "lastfm", epoch)

	// A live mutation streams through the feed (no reconnect involved).
	epoch = mutate(t, primary.URL, 0.62)
	waitEpoch(t, replica.URL, "lastfm", epoch)

	// Reads are bit-identical at the same epoch, and both ends advertise it.
	solve := `{"dataset":"lastfm","s":0,"t":5,"method":"be","k":2}`
	pStatus, pBody, pEpoch := queryStripped(t, primary.URL+"/v1/solve", solve)
	rStatus, rBody, rEpoch := queryStripped(t, replica.URL+"/v1/solve", solve)
	if pStatus != http.StatusOK || rStatus != http.StatusOK {
		t.Fatalf("solve: primary HTTP %d, replica HTTP %d", pStatus, rStatus)
	}
	if pEpoch != fmt.Sprint(epoch) || rEpoch != pEpoch {
		t.Fatalf("X-Repro-Epoch: primary %q, replica %q, want %d", pEpoch, rEpoch, epoch)
	}
	if !reflect.DeepEqual(pBody, rBody) {
		t.Fatalf("solve diverged at epoch %d:\nprimary %v\nreplica %v", epoch, pBody, rBody)
	}
	estimate := `{"dataset":"lastfm","pairs":[[0,5],[1,7],[2,9]]}`
	_, pEst, _ := queryStripped(t, primary.URL+"/v1/estimate", estimate)
	_, rEst, _ := queryStripped(t, replica.URL+"/v1/estimate", estimate)
	if !reflect.DeepEqual(pEst, rEst) {
		t.Fatalf("estimate diverged:\nprimary %v\nreplica %v", pEst, rEst)
	}

	// The async surface works on the replica too, and its payload carries
	// the same pinned epoch.
	status, data := post(t, replica.URL+"/v2/jobs", solve)
	if status != http.StatusAccepted {
		t.Fatalf("replica submit: HTTP %d: %s", status, data)
	}
	var job struct {
		ID    string `json:"id"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if job.Epoch != epoch {
		t.Fatalf("replica job pinned epoch %d, want %d", job.Epoch, epoch)
	}
	final := pollJob(t, replica.URL, job.ID)
	result, _ := final["result"].(map[string]any)
	if result == nil {
		t.Fatalf("replica job has no result: %v", final)
	}
	delete(result, "timing")
	if !reflect.DeepEqual(result, pBody) {
		t.Fatalf("replica job result diverged from primary /v1 solve:\njob %v\nv1  %v", result, pBody)
	}

	// Writes are gated on the replica.
	for path, body := range map[string]string{
		"/v2/datasets/lastfm/mutations": `{"mutations":[{"op":"set-prob","u":0,"v":1,"p":0.5}]}`,
		"/v2/datasets":                  `{"name":"x","dataset":"lastfm"}`,
	} {
		if status, data := post(t, replica.URL+path, body); status != http.StatusForbidden {
			t.Fatalf("replica POST %s: HTTP %d (%s), want 403", path, status, data)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, replica.URL+"/v2/datasets/lastfm", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica DELETE dataset: HTTP %d, want 403", resp.StatusCode)
	}

	// Metrics: the primary reports its feed fan-out, the replica its
	// follower progress — in JSON and in Prometheus exposition.
	_, pm := getJSON(t, primary.URL+"/metrics")
	feeds := pm["replication"].(map[string]any)["feeds"].(map[string]any)
	feed := feeds["lastfm"].(map[string]any)
	if feed["subscribers"].(float64) != 1 {
		t.Fatalf("primary feed subscribers = %v, want 1", feed["subscribers"])
	}
	_, rm := getJSON(t, replica.URL+"/metrics")
	followers := rm["replication"].(map[string]any)["followers"].(map[string]any)
	fo := followers["lastfm"].(map[string]any)
	if fo["batches_applied"].(float64) < 1 || fo["bootstraps"].(float64) != 1 {
		t.Fatalf("replica follower stats: %v", fo)
	}
	// Replicated batches are accounted separately from local applies.
	ds := rm["datasets"].(map[string]any)["lastfm"].(map[string]any)["mutations"].(map[string]any)
	if ds["applies"].(float64) != 0 || ds["replicated_applies"].(float64) < 1 {
		t.Fatalf("replica mutation accounting: %v", ds)
	}

	promGet := func(base string) string {
		resp, err := http.Get(base + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("prometheus content type %q", ct)
		}
		return readAll(t, resp)
	}
	pProm := promGet(primary.URL)
	for _, want := range []string{
		`relmaxd_role{role="primary"} 1`,
		`relmaxd_replication_feed_subscribers{dataset="lastfm"} 1`,
		fmt.Sprintf(`relmaxd_dataset_epoch{dataset="lastfm"} %d`, epoch),
		"# TYPE relmaxd_requests_total counter",
		"# TYPE relmaxd_qps_lifetime gauge",
		"# TYPE relmaxd_latency_window_samples gauge",
		"# TYPE relmaxd_cache_capacity gauge",
		`relmaxd_dataset_qps_last_60s{dataset="lastfm"}`,
		`relmaxd_dataset_jobs_queued{dataset="lastfm"} 0`,
		`relmaxd_dataset_jobs_running{dataset="lastfm"} 0`,
		"# TYPE relmaxd_dataset_jobs_submitted_total counter",
		"# TYPE relmaxd_dataset_jobs_completed_total counter",
		"# TYPE relmaxd_dataset_jobs_cancelled_total counter",
		"# TYPE relmaxd_dataset_jobs_failed_total counter",
		"# TYPE relmaxd_dataset_jobs_rejected_total counter",
		"# TYPE relmaxd_dataset_cache_hits_total counter",
		"# TYPE relmaxd_dataset_cache_misses_total counter",
		"# TYPE relmaxd_dataset_cache_invalidated_total counter",
		"# TYPE relmaxd_dataset_cache_entries gauge",
		"# TYPE relmaxd_dataset_anytime_samples_used_total counter",
	} {
		if !strings.Contains(pProm, want) {
			t.Fatalf("primary prometheus exposition missing %q:\n%s", want, pProm)
		}
	}
	checkPromFamilies(t, pProm)
	rProm := promGet(replica.URL)
	for _, want := range []string{
		`relmaxd_role{role="replica"} 1`,
		`relmaxd_replication_lag{dataset="lastfm"} 0`,
		`relmaxd_replication_bootstraps_total{dataset="lastfm"} 1`,
	} {
		if !strings.Contains(rProm, want) {
			t.Fatalf("replica prometheus exposition missing %q:\n%s", want, rProm)
		}
	}
	checkPromFamilies(t, rProm)

	// When the primary drops the dataset, the replica retires it.
	req, _ = http.NewRequest(http.MethodDelete, primary.URL+"/v2/datasets/lastfm", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, ok := epochOf(t, replica.URL, "lastfm"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never retired the dropped dataset")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestRouterEndToEnd: the router spreads reads across replicas, routes
// writes to the primary, namespaces job IDs per backend, and reports
// per-replica epoch lag.
func TestRouterEndToEnd(t *testing.T) {
	primary, _ := newReplPrimary(t)
	epoch := mutate(t, primary.URL, 0.4)
	replica, _ := newReplReplica(t, primary.URL)
	waitEpoch(t, replica.URL, "lastfm", epoch)

	rt := newRouter(primary.URL, []string{replica.URL}, 0)
	rt.logf = t.Logf
	router := httptest.NewServer(rt.handler())
	t.Cleanup(router.Close)

	// Reads via the router come from the replica and match the primary
	// bit for bit.
	solve := `{"dataset":"lastfm","s":0,"t":5,"method":"be","k":2}`
	pStatus, pBody, _ := queryStripped(t, primary.URL+"/v1/solve", solve)
	resp, err := http.Post(router.URL+"/v1/solve", "application/json", strings.NewReader(solve))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Repro-Backend") != "r0" {
		t.Fatalf("router read served by %q, want r0", resp.Header.Get("X-Repro-Backend"))
	}
	if resp.Header.Get("X-Repro-Epoch") != fmt.Sprint(epoch) {
		t.Fatalf("router X-Repro-Epoch %q, want %d", resp.Header.Get("X-Repro-Epoch"), epoch)
	}
	var viaRouter map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&viaRouter); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	delete(viaRouter, "timing")
	if pStatus != http.StatusOK || !reflect.DeepEqual(pBody, viaRouter) {
		t.Fatalf("router solve diverged from primary:\nrouter  %v\nprimary %v", viaRouter, pBody)
	}

	// Jobs: submit through the router, get a backend-prefixed ID, resolve
	// status and result through the same ID.
	status, data := post(t, router.URL+"/v2/jobs", solve)
	if status != http.StatusAccepted {
		t.Fatalf("router submit: HTTP %d: %s", status, data)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, "r0-") {
		t.Fatalf("router job ID %q lacks the backend prefix", job.ID)
	}
	final := pollJob(t, router.URL, job.ID)
	if final["id"] != job.ID {
		t.Fatalf("router job status ID %v, want %v", final["id"], job.ID)
	}
	result, _ := final["result"].(map[string]any)
	if result == nil {
		t.Fatalf("router job has no result: %v", final)
	}
	delete(result, "timing")
	if !reflect.DeepEqual(result, pBody) {
		t.Fatalf("router job result diverged:\njob     %v\nprimary %v", result, pBody)
	}
	if _, body := getJSON(t, router.URL+"/v2/jobs/zz-e1-j1"); body["error"] == nil {
		t.Fatal("unknown backend prefix not rejected")
	}

	// Writes route to the primary; the replica then converges, visible in
	// the router's lag metric going back to zero.
	epoch = mutate(t, router.URL, 0.53)
	if got, _ := epochOf(t, primary.URL, "lastfm"); got != epoch {
		t.Fatalf("router write did not land on primary: primary at %d, want %d", got, epoch)
	}
	waitEpoch(t, replica.URL, "lastfm", epoch)

	// Dataset listing via the router reflects the primary.
	_, list := getJSON(t, router.URL+"/v2/datasets")
	if ds := list["datasets"].([]any); len(ds) != 1 {
		t.Fatalf("router dataset list: %v", list)
	}

	// Health + metrics: backends healthy, lag zero after convergence.
	_, health := getJSON(t, router.URL+"/healthz")
	if health["status"] != "ok" {
		t.Fatalf("router health: %v", health)
	}
	_, rm := getJSON(t, router.URL+"/metrics")
	lag := rm["lag"].(map[string]any)["lastfm"].(map[string]any)
	if lag["r0"].(float64) != 0 {
		t.Fatalf("router lag after convergence: %v", lag)
	}
	resp, err = http.Get(router.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		`relmaxd_role{role="router"} 1`,
		`relmaxd_router_backend_up{backend="p"} 1`,
		`relmaxd_router_backend_up{backend="r0"} 1`,
		`relmaxd_replication_lag{backend="r0",dataset="lastfm"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("router prometheus exposition missing %q:\n%s", want, prom)
		}
	}
	checkPromFamilies(t, prom)
}

// checkPromFamilies fails unless every metric family in a Prometheus text
// exposition forms one group: a single TYPE line directly followed by all
// of the family's samples.
func checkPromFamilies(t *testing.T, text string) {
	t.Helper()
	typed := make(map[string]bool)
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(rest)[0]
			if typed[name] {
				t.Fatalf("family %s has a second TYPE line:\n%s", name, text)
			}
			typed[name], family = true, name
			continue
		}
		if name := line[:strings.IndexAny(line, "{ ")]; name != family {
			t.Fatalf("sample %q is outside family %s's group:\n%s", line, name, text)
		}
	}
}

// TestPrometheusFamiliesGrouped: with two datasets on one server, and
// three backends behind a router, the per-dataset and per-backend loops
// interleave families, yet each family is still written as one group.
func TestPrometheusFamiliesGrouped(t *testing.T) {
	catalog := testCatalog(t, replOpts()...)
	g, err := repro.LoadDataset("astopo", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.Create("astopo", g); err != nil {
		t.Fatal(err)
	}
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	primary, _ := newReplPrimary(t)
	epoch := mutate(t, primary.URL, 0.4)
	var replicas []string
	for range 2 {
		replica, _ := newReplReplica(t, primary.URL)
		waitEpoch(t, replica.URL, "lastfm", epoch)
		replicas = append(replicas, replica.URL)
	}
	rt := newRouter(primary.URL, replicas, 0)
	rt.logf = t.Logf
	router := httptest.NewServer(rt.handler())
	t.Cleanup(router.Close)

	for _, base := range []string{ts.URL, router.URL} {
		resp, err := http.Get(base + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		text := readAll(t, resp)
		resp.Body.Close()
		checkPromFamilies(t, text)
	}
}

func TestWantsPrometheus(t *testing.T) {
	cases := []struct {
		query, accept string
		want          bool
	}{
		{"format=prometheus", "", true},
		{"format=json", "text/plain", false},
		{"", "", false},
		{"", "*/*", false},
		{"", "application/json", false},
		{"", "text/plain", true},
		{"", "text/plain;version=0.0.4", true},
		{"", "text/plain, application/json", true},
		{"", "application/json, text/plain", false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/metrics?"+tc.query, nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		if got := wantsPrometheus(r); got != tc.want {
			t.Errorf("wantsPrometheus(query=%q accept=%q) = %v, want %v", tc.query, tc.accept, got, tc.want)
		}
	}
}

func TestPrefixJobID(t *testing.T) {
	in := []byte(`{"id":"e1-j2","status":"running","result":{"gain":0.123456789012345}}`)
	out := prefixJobID(in, "r1")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(out, &obj); err != nil {
		t.Fatal(err)
	}
	var id string
	if err := json.Unmarshal(obj["id"], &id); err != nil || id != "r1-e1-j2" {
		t.Fatalf("id = %q, want r1-e1-j2", id)
	}
	// Untouched fields keep their exact bytes (bit-identical payloads).
	if string(obj["result"]) != `{"gain":0.123456789012345}` {
		t.Fatalf("result bytes rewritten: %s", obj["result"])
	}
	// Non-JSON and ID-less payloads pass through unchanged.
	for _, raw := range []string{`not json`, `{"error":"nope"}`, `[1,2]`} {
		if got := prefixJobID([]byte(raw), "p"); string(got) != raw {
			t.Fatalf("prefixJobID(%q) = %q, want passthrough", raw, got)
		}
	}
}

// fakeHealthBackend serves only a /healthz endpoint reporting the given
// per-dataset epochs — enough for the router's scrape to compute lag.
func fakeHealthBackend(t *testing.T, epochs map[string]uint64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		datasets := make(map[string]any, len(epochs))
		for name, e := range epochs {
			datasets[name] = map[string]any{"epoch": e}
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "datasets": datasets})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterHealthAwareBalancing: pickRead skips replicas whose /healthz
// fails or whose epoch lag exceeds -max-lag, falls back to the primary
// when no replica qualifies, and counts every skip in the metrics.
func TestRouterHealthAwareBalancing(t *testing.T) {
	primary := fakeHealthBackend(t, map[string]uint64{"lastfm": 10})
	fresh := fakeHealthBackend(t, map[string]uint64{"lastfm": 9}) // lag 1
	stale := fakeHealthBackend(t, map[string]uint64{"lastfm": 3}) // lag 7
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	rt := newRouter(primary.URL, []string{dead.URL, stale.URL, fresh.URL}, 2)
	rt.logf = t.Logf

	// Before any scrape the router balances blindly over all replicas.
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		seen[rt.pickRead().name] = true
	}
	if !seen["r0"] || !seen["r1"] || !seen["r2"] {
		t.Fatalf("pre-scrape round-robin skipped a replica: %v", seen)
	}

	rt.refreshHealth(context.Background())
	el := rt.eligible.Load()
	if el == nil || len(el.replicas) != 1 || el.replicas[0].name != "r2" {
		t.Fatalf("eligible after refresh: %+v", el)
	}
	for i := 0; i < 4; i++ {
		if b := rt.pickRead(); b.name != "r2" {
			t.Fatalf("read routed to %s, want the one healthy in-lag replica r2", b.name)
		}
	}
	// Each of the 4 reads steered away from the dead and the stale replica.
	if got := rt.skippedUnhealthy.Load(); got != 4 {
		t.Fatalf("skippedUnhealthy = %d, want 4", got)
	}
	if got := rt.skippedLagging.Load(); got != 4 {
		t.Fatalf("skippedLagging = %d, want 4", got)
	}
	if rt.primaryFallbacks.Load() != 0 {
		t.Fatalf("unexpected primary fallback while r2 was eligible")
	}

	// With max-lag so tight no replica qualifies, reads fall back to the
	// primary and the fallback counter moves.
	rtStrict := newRouter(primary.URL, []string{dead.URL, stale.URL}, 1)
	rtStrict.logf = t.Logf
	rtStrict.refreshHealth(context.Background())
	if b := rtStrict.pickRead(); b.name != "p" {
		t.Fatalf("read routed to %s, want primary fallback", b.name)
	}
	if got := rtStrict.primaryFallbacks.Load(); got != 1 {
		t.Fatalf("primaryFallbacks = %d, want 1", got)
	}

	// max-lag 0 means no lag limit: a healthy replica serves however far
	// behind it is, and only the dead one is skipped.
	rtLoose := newRouter(primary.URL, []string{dead.URL, stale.URL}, 0)
	rtLoose.logf = t.Logf
	rtLoose.refreshHealth(context.Background())
	if el := rtLoose.eligible.Load(); el == nil || len(el.replicas) != 1 || el.replicas[0].name != "r1" {
		t.Fatalf("max-lag=0 eligible: %+v", rtLoose.eligible.Load())
	}

	// The metrics surface the balancing counters.
	router := httptest.NewServer(rt.handler())
	t.Cleanup(router.Close)
	_, rm := getJSON(t, router.URL+"/metrics")
	bal, _ := rm["balancing"].(map[string]any)
	if bal == nil || bal["eligible_replicas"].(float64) != 1 {
		t.Fatalf("metrics balancing block: %v", rm["balancing"])
	}
}

// TestRouterSkipsCountReadsNotScrapes: health scrapes steer no read, so
// /metrics scrapes over a dead replica leave the skip counter at 0, and
// each routed read then counts the dead replica once.
func TestRouterSkipsCountReadsNotScrapes(t *testing.T) {
	primary := fakeHealthBackend(t, map[string]uint64{"lastfm": 1})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)
	rt := newRouter(primary.URL, []string{dead.URL}, 0)
	rt.logf = t.Logf
	router := httptest.NewServer(rt.handler())
	t.Cleanup(router.Close)

	skipped := func() float64 {
		t.Helper()
		_, rm := getJSON(t, router.URL+"/metrics")
		bal, _ := rm["balancing"].(map[string]any)
		if bal == nil {
			t.Fatalf("metrics carry no balancing block: %v", rm)
		}
		return bal["skipped_unhealthy"].(float64)
	}
	for i := 0; i < 6; i++ {
		if got := skipped(); got != 0 {
			t.Fatalf("scrape %d: skipped_unhealthy = %v after zero reads, want 0", i+1, got)
		}
	}
	const reads = 5
	for i := 0; i < reads; i++ {
		if b := rt.pickRead(); b.name != "p" {
			t.Fatalf("read routed to %s, want primary fallback", b.name)
		}
	}
	if got := skipped(); got != reads {
		t.Fatalf("skipped_unhealthy = %v after %d reads, want %d", got, reads, reads)
	}
}
