package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// router is the -role router mode: a thin, stateless proxy that spreads
// read queries round-robin across the read replicas and routes every
// write — mutations and dataset lifecycle — to the primary. It holds no
// catalog and runs no engines. Balancing is health-aware: a periodic
// /healthz scrape (and every /healthz-/metrics request) recomputes which
// replicas are reachable and within -max-lag epochs of the primary, and
// reads fall back to the primary when no replica qualifies; skip and
// fallback counts surface in /metrics.
//
// Job IDs are engine-local ("e1-j3"), so the same ID exists independently
// on every backend. The router namespaces them: a job submitted to backend
// b comes back as "<b.name>-e1-j3", and job status/cancel/events routes on
// (and strips) that prefix. Clients therefore see one coherent job space.
//
// Reads through the router are bit-identical across backends at equal
// epochs as long as every backend runs identical engine parameters
// (sampler, z, seed, workers) — replicas replicate data, not flags. The
// X-Repro-Epoch header every proxied response carries is how clients (and
// the smoke test) check which epoch served them.
type router struct {
	primary  backend
	replicas []backend
	client   *http.Client
	next     atomic.Uint64 // round-robin cursor over replicas
	logf     func(format string, args ...any)
	start    time.Time

	// Health-aware read balancing: refreshHealth scrapes every backend and
	// publishes the replicas that are reachable AND within maxLag epochs of
	// the primary (0 = no lag limit); pickRead round-robins over that set,
	// falling back to the primary when it is empty. A nil eligible pointer
	// (no scrape yet) routes over all replicas — the pre-health behavior.
	maxLag   uint64
	eligible atomic.Pointer[[]backend]

	skippedUnhealthy atomic.Uint64 // replicas excluded: /healthz unreachable
	skippedLagging   atomic.Uint64 // replicas excluded: epoch lag > maxLag
	primaryFallbacks atomic.Uint64 // reads routed to the primary for lack of an eligible replica
}

// backend is one proxied relmaxd instance.
type backend struct {
	name string // job-ID prefix: "p" for the primary, "r0", "r1", ... replicas
	url  string // base URL without trailing slash
}

func newRouter(primary string, replicas []string, maxLag uint64) *router {
	rt := &router{
		primary: backend{name: "p", url: strings.TrimRight(primary, "/")},
		// The feed connections replicas hold against the primary are
		// long-lived, but router-proxied requests are bounded per-request
		// contexts; no overall client timeout so /v2 events can stream.
		client: &http.Client{},
		logf:   log.Printf,
		start:  time.Now(),
		maxLag: maxLag,
	}
	for i, u := range replicas {
		rt.replicas = append(rt.replicas, backend{name: fmt.Sprintf("r%d", i), url: strings.TrimRight(u, "/")})
	}
	return rt
}

func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	// Reads spread across replicas.
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.pickRead(), r.URL.Path, nil)
	})
	mux.HandleFunc("POST /v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.pickRead(), r.URL.Path, nil)
	})
	mux.HandleFunc("POST /v2/jobs", rt.handleJobSubmit)
	mux.HandleFunc("GET /v2/jobs/{id}", rt.handleJob(""))
	mux.HandleFunc("DELETE /v2/jobs/{id}", rt.handleJob(""))
	mux.HandleFunc("GET /v2/jobs/{id}/events", rt.handleJob("/events"))
	// Dataset reads list the primary — the authority on what exists; writes
	// go there too. Replicas converge via their own list polling.
	mux.HandleFunc("GET /v2/datasets", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.primary, r.URL.Path, nil)
	})
	mux.HandleFunc("POST /v2/datasets", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.primary, r.URL.Path, nil)
	})
	mux.HandleFunc("DELETE /v2/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.primary, r.URL.Path, nil)
	})
	mux.HandleFunc("POST /v2/datasets/{name}/mutations", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.primary, r.URL.Path, nil)
	})
	return mux
}

// pickRead chooses the next read backend round-robin over the healthy,
// within-lag replicas (see refreshHealth), with the primary serving reads
// when no replicas are configured or none is currently eligible.
func (rt *router) pickRead() backend {
	if len(rt.replicas) == 0 {
		return rt.primary
	}
	pool := rt.replicas
	if el := rt.eligible.Load(); el != nil {
		if len(*el) == 0 {
			rt.primaryFallbacks.Add(1)
			return rt.primary
		}
		pool = *el
	}
	n := rt.next.Add(1)
	return pool[int((n-1)%uint64(len(pool)))]
}

// refreshHealth scrapes every backend, recomputes the eligible read set —
// replicas whose /healthz answers and whose worst per-dataset epoch lag is
// within maxLag — and publishes it for pickRead. It returns the scraped
// health view so the /healthz and /metrics handlers reuse one scrape.
func (rt *router) refreshHealth(ctx context.Context) []backendHealth {
	backends := rt.scrape(ctx)
	lag := lagOf(backends)
	eligible := make([]backend, 0, len(rt.replicas))
	for i, bh := range backends[1:] {
		if !bh.Healthy {
			rt.skippedUnhealthy.Add(1)
			continue
		}
		// Lag is measurable only against a reachable primary; with the
		// primary down, a healthy replica keeps serving whatever it has.
		if rt.maxLag > 0 && backends[0].Healthy && worstLag(lag, bh.Name) > rt.maxLag {
			rt.skippedLagging.Add(1)
			continue
		}
		eligible = append(eligible, rt.replicas[i])
	}
	rt.eligible.Store(&eligible)
	return backends
}

// worstLag is a replica's maximum epoch lag across datasets.
func worstLag(lag map[string]map[string]uint64, name string) uint64 {
	worst := uint64(0)
	for _, perReplica := range lag {
		if l, ok := perReplica[name]; ok && l > worst {
			worst = l
		}
	}
	return worst
}

// healthLoop refreshes the eligible read set periodically until ctx fires;
// the /healthz and /metrics handlers also refresh on demand.
func (rt *router) healthLoop(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		rt.refreshHealth(ctx)
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// backendFor resolves a namespaced job ID to its backend and the backend-
// local ID.
func (rt *router) backendFor(id string) (backend, string, bool) {
	prefix, rest, ok := strings.Cut(id, "-")
	if !ok {
		return backend{}, "", false
	}
	if prefix == rt.primary.name {
		return rt.primary, rest, true
	}
	for _, b := range rt.replicas {
		if b.name == prefix {
			return b, rest, true
		}
	}
	return backend{}, "", false
}

// handleJobSubmit proxies POST /v2/jobs to a read backend and namespaces
// the returned job ID with the backend's name.
func (rt *router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	b := rt.pickRead()
	rt.proxy(w, r, b, r.URL.Path, func(status int, body []byte) []byte {
		return prefixJobID(body, b.name)
	})
}

// handleJob proxies the per-job endpoints, routing on the ID's backend
// prefix and re-namespacing the ID in the response (events streams carry
// no IDs and pass through untouched via the nil rewrite).
func (rt *router) handleJob(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, localID, ok := rt.backendFor(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound,
				errorResponse{Error: "unknown job " + r.PathValue("id") + " (router job IDs carry a backend prefix)"})
			return
		}
		var rewrite func(int, []byte) []byte
		if suffix == "" {
			rewrite = func(status int, body []byte) []byte { return prefixJobID(body, b.name) }
		}
		rt.proxy(w, r, b, "/v2/jobs/"+localID+suffix, rewrite)
	}
}

// prefixJobID namespaces the top-level "id" field of a JSON object. The
// rest of the payload passes through byte-for-byte (RawMessage values), so
// proxied results stay bit-identical to the backend's.
func prefixJobID(body []byte, name string) []byte {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		return body
	}
	var id string
	if err := json.Unmarshal(obj["id"], &id); err != nil || id == "" {
		return body
	}
	raw, err := json.Marshal(name + "-" + id)
	if err != nil {
		return body
	}
	obj["id"] = raw
	out, err := json.Marshal(obj)
	if err != nil {
		return body
	}
	return append(out, '\n')
}

// proxy forwards the request to a backend, streaming the response through.
// A non-nil rewrite buffers the body and transforms it (job-ID
// namespacing); streaming endpoints must pass nil.
func (rt *router) proxy(w http.ResponseWriter, r *http.Request, b backend, path string, rewrite func(status int, body []byte) []byte) {
	u := b.url + path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: "router: " + err.Error()})
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.logf("relmaxd: router: %s %s via %s: %v", r.Method, path, b.url, err)
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: fmt.Sprintf("router: backend %s unreachable", b.name)})
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Repro-Epoch"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Repro-Backend", b.name)
	if rewrite != nil {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			writeJSON(w, http.StatusBadGateway, errorResponse{Error: "router: backend read: " + err.Error()})
			return
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(rewrite(resp.StatusCode, body))
		return
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush() // NDJSON event streams must not sit in a buffer
			}
		}
		if rerr != nil {
			return
		}
	}
}

// backendHealth is one backend's view in the router's /healthz and
// /metrics: reachability plus per-dataset epochs, from which the router
// derives replica lag without any backend-side coordination.
type backendHealth struct {
	Name    string            `json:"name" prom:",backend"`
	URL     string            `json:"url"`
	Healthy bool              `json:"healthy" prom:"router_backend_up,gauge"`
	Epochs  map[string]uint64 `json:"epochs,omitempty" prom:"router_backend_epoch,gauge,dataset"`
}

// scrape collects every backend's /healthz dataset epochs.
func (rt *router) scrape(ctx context.Context) []backendHealth {
	backends := append([]backend{rt.primary}, rt.replicas...)
	out := make([]backendHealth, len(backends))
	for i, b := range backends {
		bh := backendHealth{Name: b.name, URL: b.url}
		func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var body struct {
				Datasets map[string]struct {
					Epoch uint64 `json:"epoch"`
				} `json:"datasets"`
			}
			if json.NewDecoder(resp.Body).Decode(&body) != nil {
				return
			}
			bh.Healthy = true
			bh.Epochs = make(map[string]uint64, len(body.Datasets))
			for name, d := range body.Datasets {
				bh.Epochs[name] = d.Epoch
			}
		}()
		out[i] = bh
	}
	return out
}

// lagOf derives per-dataset, per-replica epoch lag from a scrape: how many
// epochs each replica trails the primary. A dataset a replica has not
// bootstrapped yet reports the primary's full epoch as lag.
func lagOf(backends []backendHealth) map[string]map[string]uint64 {
	lag := make(map[string]map[string]uint64)
	if len(backends) == 0 || !backends[0].Healthy {
		return lag
	}
	primary := backends[0]
	for name, pe := range primary.Epochs {
		lag[name] = make(map[string]uint64)
		for _, b := range backends[1:] {
			if !b.Healthy {
				continue
			}
			if re, ok := b.Epochs[name]; ok && re <= pe {
				lag[name][b.Name] = pe - re
			} else if !ok {
				lag[name][b.Name] = pe
			} else {
				lag[name][b.Name] = 0 // replica ahead of a stale primary scrape
			}
		}
	}
	return lag
}

func (rt *router) handleHealth(w http.ResponseWriter, r *http.Request) {
	backends := rt.refreshHealth(r.Context())
	status := "ok"
	if !backends[0].Healthy {
		status = "degraded: primary unreachable"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status, "role": roleRouter, "backends": backends,
	})
}

// routerMetrics is the router's /metrics payload; its tags declare each
// field's JSON key and Prometheus series like the server's metricsResponse.
type routerMetrics struct {
	Backends  []backendHealth `json:"backends"`
	Balancing struct {
		EligibleReplicas int    `json:"eligible_replicas" prom:"router_eligible_replicas,gauge"`
		MaxLag           uint64 `json:"max_lag" prom:"router_max_lag,gauge"`
		PrimaryFallbacks uint64 `json:"primary_fallbacks" prom:"router_primary_fallbacks_total,counter"`
		SkippedLagging   uint64 `json:"skipped_lagging" prom:"router_skipped_total,counter,reason=lagging"`
		SkippedUnhealthy uint64 `json:"skipped_unhealthy" prom:"router_skipped_total,counter,reason=unhealthy"`
	} `json:"balancing"`
	// Lag is each replica's epoch lag behind the primary, per dataset.
	Lag     map[string]map[string]uint64 `json:"lag" prom:"replication_lag,gauge,dataset,backend"`
	Role    string                       `json:"role" prom:"role,gauge,role"`
	UptimeS float64                      `json:"uptime_s" prom:"uptime_seconds,gauge"`
}

// handleMetrics reports the router's backend topology and per-replica
// epoch lag, in JSON or Prometheus exposition like the server's /metrics.
func (rt *router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	backends := rt.refreshHealth(r.Context())
	resp := routerMetrics{
		Backends: backends,
		Lag:      lagOf(backends),
		Role:     roleRouter,
		UptimeS:  time.Since(rt.start).Seconds(),
	}
	if el := rt.eligible.Load(); el != nil {
		resp.Balancing.EligibleReplicas = len(*el)
	}
	resp.Balancing.MaxLag = rt.maxLag
	resp.Balancing.PrimaryFallbacks = rt.primaryFallbacks.Load()
	resp.Balancing.SkippedLagging = rt.skippedLagging.Load()
	resp.Balancing.SkippedUnhealthy = rt.skippedUnhealthy.Load()
	if wantsPrometheus(r) {
		writePrometheus(w, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
