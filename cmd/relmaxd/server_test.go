package main

import (
	"strings"

	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

// testCatalog builds a single-dataset catalog over the lastfm fixture with
// the given engine defaults.
func testCatalog(t *testing.T, opts ...repro.EngineOption) *repro.Catalog {
	t.Helper()
	g, err := repro.LoadDataset("lastfm", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	catalog := repro.NewCatalog(opts...)
	if _, err := catalog.Create("lastfm", g); err != nil {
		t.Fatal(err)
	}
	return catalog
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	catalog := testCatalog(t,
		repro.WithSampleSize(200), repro.WithSeed(7), repro.WithWorkers(2),
		repro.WithSolverDefaults(repro.Options{K: 2, Z: 200, Seed: 7, R: 8, L: 8, Workers: 2}))
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body struct {
		Status   string `json:"status"`
		Datasets map[string]struct {
			N int `json:"n"`
			M int `json:"m"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Datasets["lastfm"].N == 0 {
		t.Fatalf("unexpected healthz payload: %+v", body)
	}
}

// TestSolveDeterministicPayload is the serving determinism contract: two
// identical solve requests must return identical payloads modulo the
// timing block.
func TestSolveDeterministicPayload(t *testing.T) {
	ts := testServer(t)
	const body = `{"s":0,"t":39,"method":"be"}`
	status1, raw1 := post(t, ts.URL+"/v1/solve", body)
	status2, raw2 := post(t, ts.URL+"/v1/solve", body)
	if status1 != http.StatusOK || status2 != http.StatusOK {
		t.Fatalf("solve statuses %d/%d: %s %s", status1, status2, raw1, raw2)
	}
	var a, b map[string]any
	if err := json.Unmarshal(raw1, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw2, &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "timing")
	delete(b, "timing")
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("solve payloads diverged:\n%s\n%s", ja, jb)
	}
	if a["gain"] == nil || a["method"] != "be" {
		t.Fatalf("unexpected solve payload: %s", ja)
	}
}

func TestEstimateMany(t *testing.T) {
	ts := testServer(t)
	const body = `{"pairs":[[0,9],[1,22],[4,4]]}`
	status, raw := post(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d: %s", status, raw)
	}
	var resp estimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reliabilities) != 3 {
		t.Fatalf("got %d reliabilities, want 3: %s", len(resp.Reliabilities), raw)
	}
	if resp.Reliabilities[2] != 1 {
		t.Fatalf("s==t pair estimated %v, want 1", resp.Reliabilities[2])
	}
	_, raw2 := post(t, ts.URL+"/v1/estimate", body)
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("estimate payloads diverged:\n%s\n%s", raw, raw2)
	}
}

func TestErrorMapping(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"bad json", "/v1/solve", `{`, http.StatusBadRequest},
		{"unknown dataset", "/v1/solve", `{"dataset":"nope","s":0,"t":5}`, http.StatusNotFound},
		{"unknown method", "/v1/solve", `{"s":0,"t":5,"method":"bogus"}`, http.StatusBadRequest},
		{"bad endpoints", "/v1/solve", `{"s":0,"t":0}`, http.StatusBadRequest},
		{"node out of range", "/v1/solve", `{"s":0,"t":1000000}`, http.StatusBadRequest},
		{"unknown sampler", "/v1/solve", `{"s":0,"t":5,"sampler":"bogus"}`, http.StatusBadRequest},
		{"v2 retired sampler", "/v2/jobs", `{"kind":"solve","s":0,"t":5,"sampler":"lazy"}`, http.StatusBadRequest},
		{"v2 unknown sampler multi", "/v2/jobs", `{"kind":"multi","sources":[0],"targets":[5],"sampler":"bogus"}`, http.StatusBadRequest},
		{"v2 unknown sampler total-budget", "/v2/jobs", `{"kind":"total-budget","s":0,"t":5,"budget":1,"sampler":"bogus"}`, http.StatusBadRequest},
		{"v2 unknown aggregate", "/v2/jobs", `{"kind":"multi","sources":[0],"targets":[5],"aggregate":"median"}`, http.StatusBadRequest},
		{"empty pairs", "/v1/estimate", `{"pairs":[]}`, http.StatusBadRequest},
		{"estimate out of range", "/v1/estimate", `{"pairs":[[0,1000000]]}`, http.StatusBadRequest},
		{"v2 solve out of range", "/v2/jobs", `{"kind":"solve","s":99999,"t":5}`, http.StatusBadRequest},
		{"v2 solve same endpoints", "/v2/jobs", `{"kind":"solve","s":5,"t":5}`, http.StatusBadRequest},
		{"v2 total-budget out of range", "/v2/jobs", `{"kind":"total-budget","s":99999,"t":5,"budget":1}`, http.StatusBadRequest},
		{"v2 multi out of range", "/v2/jobs", `{"kind":"multi","sources":[99999],"targets":[5]}`, http.StatusBadRequest},
		{"v2 multi empty", "/v2/jobs", `{"kind":"multi","sources":[],"targets":[]}`, http.StatusBadRequest},
		{"v2 estimate negative", "/v2/jobs", `{"kind":"estimate","s":-1,"t":5}`, http.StatusBadRequest},
		{"v2 estimate-many out of range", "/v2/jobs", `{"kind":"estimate-many","pairs":[[0,99999]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", status, tc.wantStatus, raw)
			}
		})
	}
}

// TestRequestTimeout arms a microscopic per-request timeout against a huge
// sample budget: the server must answer 504, not hang.
func TestRequestTimeout(t *testing.T) {
	ts := testServer(t)
	status, raw := post(t, ts.URL+"/v1/estimate",
		`{"pairs":[[0,9]],"timeout_ms":1}`)
	// The tiny budget might still finish in under a millisecond on a fast
	// machine; drive the budget up (to the serving ceiling) to force the
	// deadline.
	if status == http.StatusOK {
		status, raw = post(t, ts.URL+"/v1/solve",
			`{"s":0,"t":39,"z":1000000,"timeout_ms":5}`)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, raw)
	}
}

// TestParameterCeilings: computational-cost limits are enforced before any
// sampling starts.
func TestParameterCeilings(t *testing.T) {
	ts := testServer(t)
	cases := []struct{ name, path, body string }{
		{"z over ceiling", "/v1/solve", `{"s":0,"t":39,"z":50000000}`},
		{"k over ceiling", "/v1/solve", `{"s":0,"t":39,"k":100000}`},
		{"negative z", "/v1/solve", `{"s":0,"t":39,"z":-1}`},
		{"r over ceiling", "/v1/solve", `{"s":0,"t":39,"r":1000000}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, raw)
			}
		})
	}
	// An oversized estimate batch (within the body cap) is rejected too.
	var pairs strings.Builder
	pairs.WriteString(`{"pairs":[`)
	for i := 0; i < 10001; i++ {
		if i > 0 {
			pairs.WriteString(",")
		}
		pairs.WriteString(`[0,9]`)
	}
	pairs.WriteString(`]}`)
	status, raw := post(t, ts.URL+"/v1/estimate", pairs.String())
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400: %s", status, raw)
	}
}
