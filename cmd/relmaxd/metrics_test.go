package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Golden /metrics renderings of three fixed server states. Each scrape is
// recorded twice: the decoded JSON as sorted key-path = value lines, and
// the Prometheus exposition as sorted (family, TYPE, label set, value)
// lines. Values that move with wall-clock time (uptime, QPS, latency
// quantiles), graph epochs (version stamps drawn from a process-wide
// counter, so they depend on which tests ran first) and the test servers'
// random ports are masked. A missing golden file is written from the
// current output and the test fails, so regenerating one means deleting
// it and running the test twice.

// maskedJSON are path.Match patterns of the JSON key paths whose values
// are masked.
var maskedJSON = []string{
	"uptime_s", "qps.lifetime", "qps.last_60s",
	"latency_ms.p50", "latency_ms.p90", "latency_ms.p99", "latency_ms.max",
	"datasets.*.qps_last_60s", "datasets.*.epoch",
	"replication.feeds.*.epoch", "replication.followers.*.last_applied_epoch",
	"replication.followers.*.primary_epoch",
	"backends.*.url", "backends.*.epochs.*",
}

// maskedProm are the Prometheus families whose values are masked.
var maskedProm = map[string]bool{
	"relmaxd_uptime_seconds":                 true,
	"relmaxd_qps_lifetime":                   true,
	"relmaxd_qps_last_60s":                   true,
	"relmaxd_dataset_qps_last_60s":           true,
	"relmaxd_latency_ms":                     true,
	"relmaxd_latency_ms_max":                 true,
	"relmaxd_dataset_epoch":                  true,
	"relmaxd_replication_feed_epoch":         true,
	"relmaxd_replication_last_applied_epoch": true,
	"relmaxd_replication_primary_epoch":      true,
	"relmaxd_router_backend_epoch":           true,
}

func maskedPath(p string) bool {
	for _, m := range maskedJSON {
		if ok, _ := path.Match(m, p); ok {
			return true
		}
	}
	return false
}

// flattenJSON returns the leaves of a decoded JSON document keyed by their
// dotted key path (slice elements by index); empty objects and arrays are
// leaves too, so a key that is present but empty still shows.
func flattenJSON(v any, key string, out map[string]any) {
	join := func(k string) string {
		if key == "" {
			return k
		}
		return key + "." + k
	}
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 && key != "" {
			out[key] = x
		}
		for k, e := range x {
			flattenJSON(e, join(k), out)
		}
	case []any:
		if len(x) == 0 {
			out[key] = x
		}
		for i, e := range x {
			flattenJSON(e, join(fmt.Sprint(i)), out)
		}
	default:
		out[key] = x
	}
}

// jsonGolden renders a /metrics JSON body as sorted "path = value" lines.
func jsonGolden(t *testing.T, body []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	leaves := make(map[string]any)
	flattenJSON(doc, "", leaves)
	var lines []string
	for key, v := range leaves {
		val, _ := json.Marshal(v)
		if maskedPath(key) {
			val = []byte("*")
		}
		lines = append(lines, fmt.Sprintf("%s = %s", key, val))
	}
	sort.Strings(lines)
	return lines
}

// promSeries is one parsed sample of a text exposition.
type promSeries struct {
	family, typ, labels, value string
}

// parseProm parses a text exposition into its samples, each with the TYPE
// of its family.
func parseProm(t *testing.T, text string) []promSeries {
	t.Helper()
	types := make(map[string]string)
	var out []promSeries
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			types[f[0]] = f[1]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name, value := line[:sp], line[sp+1:]
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if types[name] == "" {
			t.Fatalf("sample %q has no TYPE line", line)
		}
		out = append(out, promSeries{name, types[name], labels, value})
	}
	return out
}

// promGolden renders an exposition as sorted "family TYPE {labels} value"
// lines.
func promGolden(t *testing.T, text string) []string {
	t.Helper()
	var lines []string
	for _, s := range parseProm(t, text) {
		if maskedProm[s.family] {
			s.value = "*"
		}
		lines = append(lines, fmt.Sprintf("%s %s {%s} %s", s.family, s.typ, strings.Trim(s.labels, "{}"), s.value))
	}
	sort.Strings(lines)
	return lines
}

// scrapeGolden fetches base/metrics in both renderings and returns the
// golden section for them.
func scrapeGolden(t *testing.T, node, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	resp, err = http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "## %s json\n%s\n", node, strings.Join(jsonGolden(t, []byte(body)), "\n"))
	fmt.Fprintf(&b, "## %s prometheus\n%s\n", node, strings.Join(promGolden(t, text), "\n"))
	return b.String()
}

// checkGolden compares got with testdata/metrics/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	file := filepath.Join("testdata", "metrics", name+".golden")
	want, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden file %s; run the test again", file)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wantLines := make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		wantLines[l] = true
	}
	gotLines := make(map[string]bool)
	var diff []string
	for _, l := range strings.Split(got, "\n") {
		gotLines[l] = true
		if !wantLines[l] {
			diff = append(diff, "+ "+l)
		}
	}
	for _, l := range strings.Split(string(want), "\n") {
		if !gotLines[l] {
			diff = append(diff, "- "+l)
		}
	}
	t.Fatalf("%s: /metrics differs from the golden file (- want, + got):\n%s", file, strings.Join(diff, "\n"))
}

// TestMetricsGoldenFresh: a fresh server, before any query, so the latency
// window is empty.
func TestMetricsGoldenFresh(t *testing.T) {
	ts, _ := testServerV2(t)
	checkGolden(t, "fresh", scrapeGolden(t, "server", ts.URL))
}

// TestMetricsGoldenDatasets: two datasets after a solve, estimates with a
// cache hit and an anytime estimate, and one mutation.
func TestMetricsGoldenDatasets(t *testing.T) {
	ts, _ := testServerV2(t)
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v2/datasets",
		`{"name":"tiny","edge_list":"ugraph undirected 3 2\n0 1 0.9\n1 2 0.8\n"}`); status != http.StatusCreated {
		t.Fatalf("create status %d", status)
	}
	for _, q := range []struct{ path, body string }{
		{"/v1/solve", `{"dataset":"lastfm","s":0,"t":5,"method":"be","k":2}`},
		{"/v1/estimate", `{"dataset":"tiny","pairs":[[0,2]]}`},
		{"/v1/estimate", `{"dataset":"tiny","pairs":[[0,2]]}`}, // cache hit
		{"/v1/estimate", `{"dataset":"lastfm","pairs":[[0,9]],"precision":0.05}`},
	} {
		if status, data := post(t, ts.URL+q.path, q.body); status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", q.path, status, data)
		}
	}
	if status, data := post(t, ts.URL+"/v2/datasets/tiny/mutations",
		`{"mutations":[{"op":"set-prob","u":0,"v":1,"p":0.5}]}`); status != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", status, data)
	}
	checkGolden(t, "datasets", scrapeGolden(t, "server", ts.URL))
}

// TestMetricsGoldenReplication: a durable primary with one feed
// subscriber, the replica behind it, and a router over both.
func TestMetricsGoldenReplication(t *testing.T) {
	primary, _ := newReplPrimary(t)
	// The replica lists the primary's datasets once, so the primary's
	// request counters do not depend on how long the test runs.
	replica, _ := newReplReplicaEvery(t, primary.URL, time.Hour)
	epoch, _ := epochOf(t, primary.URL, "lastfm")
	waitEpoch(t, replica.URL, "lastfm", epoch)
	epoch = mutate(t, primary.URL, 0.4)
	waitEpoch(t, replica.URL, "lastfm", epoch)
	rt := newRouter(primary.URL, []string{replica.URL}, 0)
	rt.logf = t.Logf
	router := httptest.NewServer(rt.handler())
	t.Cleanup(router.Close)

	got := scrapeGolden(t, "primary", primary.URL) +
		scrapeGolden(t, "replica", replica.URL) +
		scrapeGolden(t, "router", router.URL)
	checkGolden(t, "replication", got)
}

// TestMetricsLeavesMatchSeries: every numeric or bool leaf of the
// server's and the router's /metrics JSON is rendered by exactly one
// Prometheus series, and every series renders exactly one leaf, with the
// same value. A field declared for only one of the two renderings fails
// it. The leaf-to-series pairing comes from the payload's declarations;
// the leaves and series checked are the ones served over HTTP.
func TestMetricsLeavesMatchSeries(t *testing.T) {
	primary, _ := newReplPrimary(t)
	replica, _ := newReplReplicaEvery(t, primary.URL, time.Hour)
	epoch := mutate(t, primary.URL, 0.4)
	waitEpoch(t, replica.URL, "lastfm", epoch)
	// Queries fill the latency windows, whose quantiles are exposed only
	// when non-empty, and an anytime estimate moves the anytime counters.
	for _, base := range []string{primary.URL, replica.URL} {
		for _, q := range []struct{ path, body string }{
			{"/v1/solve", `{"dataset":"lastfm","s":0,"t":5,"method":"be","k":2}`},
			{"/v1/estimate", `{"dataset":"lastfm","pairs":[[0,9]],"precision":0.05}`},
		} {
			if status, data := post(t, base+q.path, q.body); status != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", q.path, status, data)
			}
		}
	}
	rt := newRouter(primary.URL, []string{replica.URL}, 0)
	rt.logf = t.Logf
	router := httptest.NewServer(rt.handler())
	t.Cleanup(router.Close)

	checkLeavesMatchSeries(t, primary.URL, &metricsResponse{})
	checkLeavesMatchSeries(t, replica.URL, &metricsResponse{})
	checkLeavesMatchSeries(t, router.URL, &routerMetrics{})
}

// checkLeavesMatchSeries scrapes base/metrics in both renderings and pairs
// leaves with series through payload, a pointer to the payload type.
func checkLeavesMatchSeries(t *testing.T, base string, payload any) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	var doc any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	leaves := make(map[string]any)
	flattenJSON(doc, "", leaves)
	if err := json.Unmarshal([]byte(body), payload); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	served := make(map[string]promSeries)
	for _, s := range parseProm(t, text) {
		served[s.family+s.labels] = s
	}

	leafSeries := make(map[string]string)
	seriesLeaf := make(map[string]string)
	for _, s := range promSamples(payload) {
		key := s.family + s.labels
		if prev, dup := leafSeries[s.path]; dup {
			t.Errorf("%s: leaf %s renders as both %s and %s", base, s.path, prev, key)
		}
		if prev, dup := seriesLeaf[key]; dup {
			t.Errorf("%s: series %s renders both %s and %s", base, key, prev, s.path)
		}
		leafSeries[s.path], seriesLeaf[key] = key, s.path
		leaf, ok := leaves[s.path]
		if !ok {
			t.Errorf("%s: series %s has no JSON leaf %s", base, key, s.path)
			continue
		}
		got, ok := served[key]
		if !ok {
			t.Errorf("%s: leaf %s = %v: series %s not served", base, s.path, leaf, key)
			continue
		}
		if want := fmt.Sprintf("%g", s.value); !maskedProm[s.family] && got.value != want {
			t.Errorf("%s: series %s = %s, JSON leaf %s = %v", base, key, got.value, s.path, leaf)
		}
	}
	for key, v := range leaves {
		switch v.(type) {
		case float64, bool:
			if _, ok := leafSeries[key]; !ok {
				t.Errorf("%s: JSON leaf %s = %v has no Prometheus series", base, key, v)
			}
		}
	}
	for key := range served {
		if _, ok := seriesLeaf[key]; !ok {
			t.Errorf("%s: Prometheus series %s renders no JSON leaf", base, key)
		}
	}
}

// TestDatasetCheckpointMetrics: a -data-dir dataset reports its initial
// checkpoint, and no failed ones, in both renderings.
func TestDatasetCheckpointMetrics(t *testing.T) {
	cfg := engineConfig{scale: 0.03, z: 100, sampler: "rss", seed: 1, dataDir: t.TempDir()}
	catalog, err := buildCatalog("", "", "lastfm", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	_, body := getJSON(t, ts.URL+"/metrics")
	mut := body["datasets"].(map[string]any)["lastfm"].(map[string]any)["mutations"].(map[string]any)
	if mut["checkpoints"].(float64) < 1 || mut["checkpoint_errors"].(float64) != 0 {
		t.Fatalf("JSON checkpoint counters: %v", mut)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	series := make(map[string]promSeries)
	for _, s := range parseProm(t, text) {
		series[s.family+s.labels] = s
	}
	ckpt := series[`relmaxd_dataset_checkpoints_total{dataset="lastfm"}`]
	if n, err := strconv.ParseFloat(ckpt.value, 64); ckpt.typ != "counter" || err != nil || n < 1 {
		t.Fatalf("relmaxd_dataset_checkpoints_total = %+v, want a counter >= 1", ckpt)
	}
	if errs := series[`relmaxd_dataset_checkpoint_errors_total{dataset="lastfm"}`]; errs.typ != "counter" || errs.value != "0" {
		t.Fatalf("relmaxd_dataset_checkpoint_errors_total = %+v, want counter 0", errs)
	}
}
