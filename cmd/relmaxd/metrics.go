package main

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"repro"
)

// latWindow is how many recent request latencies the quantile window
// keeps; old entries are overwritten ring-style, so /metrics reports
// quantiles over the last latWindow requests.
const latWindow = 1024

// metrics collects serving counters: request counts per endpoint and
// status class, a one-minute QPS window, and a bounded latency reservoir
// for quantiles. Engine-level numbers (queue depth, cancellations, cache
// hits) are read live from the engines at snapshot time, not accumulated
// here.
type metrics struct {
	start time.Time

	mu         sync.Mutex
	total      uint64
	byEndpoint map[string]uint64
	byStatus   map[string]uint64
	// precisionSheds counts precision-mode estimates the server coarsened
	// under load (-shed-precision) instead of queueing at full cost.
	precisionSheds uint64
	lat            []time.Duration // ring buffer
	latNext        int
	latFull        bool
	// window counts request completions over the last minute.
	window secWindow
	// byDataset counts query requests (solve/estimate/submit) per resolved
	// dataset, each with its own one-minute window. Entries are dropped
	// when a dataset is closed and pruned at snapshot time if a racing
	// request resurrected one after the drop.
	byDataset map[string]*datasetCounters
	// retired accumulates the final engine counters of closed datasets, so
	// the global jobs.*/cache.* totals stay monotonic across DELETE
	// /v2/datasets — a scraper computing rates must never see a counter
	// reset just because a dataset was retired.
	retired engineCounters
}

// secWindow is a 60-bucket one-second histogram, giving an exact events-
// in-the-last-minute count in O(1) memory. Callers hold their own lock.
type secWindow struct {
	secs    [60]uint64
	lastSec int64
}

// advance zeroes the buckets of the seconds skipped since the last sample.
func (w *secWindow) advance(now int64) {
	if w.lastSec == 0 {
		w.lastSec = now
		return
	}
	for s := w.lastSec + 1; s <= now && s <= w.lastSec+60; s++ {
		w.secs[s%60] = 0
	}
	if now > w.lastSec {
		w.lastSec = now
	}
}

// hit records one event at now.
func (w *secWindow) hit(now int64) {
	w.advance(now)
	w.secs[now%60]++
}

// last60 returns the event count over the trailing minute; call advance
// first so stale buckets are zeroed.
func (w *secWindow) last60() uint64 {
	var n uint64
	for _, c := range w.secs {
		n += c
	}
	return n
}

// datasetCounters is the per-dataset share of the request metrics; job
// outcomes, cache statistics and the epoch come live from the dataset's
// engine at snapshot time.
type datasetCounters struct {
	requests uint64
	window   secWindow
}

func newMetrics() *metrics {
	return &metrics{
		start:      time.Now(),
		byEndpoint: make(map[string]uint64),
		byStatus:   make(map[string]uint64),
		lat:        make([]time.Duration, latWindow),
		byDataset:  make(map[string]*datasetCounters),
	}
}

// recordDataset notes one query request routed to a dataset (called by the
// query handlers once the dataset is resolved, before the work runs).
func (m *metrics) recordDataset(name string) {
	now := time.Now().Unix()
	m.mu.Lock()
	dc, ok := m.byDataset[name]
	if !ok {
		dc = &datasetCounters{}
		m.byDataset[name] = dc
	}
	dc.requests++
	dc.window.hit(now)
	m.mu.Unlock()
}

// recordPrecisionShed notes one request whose precision was coarsened by
// overload shedding.
func (m *metrics) recordPrecisionShed() {
	m.mu.Lock()
	m.precisionSheds++
	m.mu.Unlock()
}

// retireDataset removes the dataset from the catalog and folds its final
// engine counters into the retained totals, atomically with respect to
// snapshot(): both run under m.mu, so a scrape sees the dataset either
// live in the catalog or folded into retired — never in both (a double
// count) or in neither (the counter dip a rate() would misread as a
// reset). Stragglers still landing their cancellation a sample block
// after Close may be undercounted by ones — acceptable monitoring noise.
// The lock order m.mu → catalog's internal lock matches snapshot() and
// cannot invert: Catalog methods never call back into metrics.
func (m *metrics) retireDataset(catalog *repro.Catalog, name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	eng, err := catalog.Open(name)
	if err != nil {
		return err
	}
	if err := catalog.Close(name); err != nil {
		return err
	}
	delete(m.byDataset, name)
	st := eng.Stats()
	// Only counters outlive the engine; the gauges of its queue and cache
	// leave the global totals with it.
	st.QueuedJobs, st.RunningJobs, st.CacheLen, st.CacheCap = 0, 0, 0, 0
	m.retired.add(st)
	return nil
}

// record notes one completed request. Only query-serving endpoints feed
// the latency window (recordLatency): a long-lived events stream would
// spike the quantiles with its connection lifetime, and a dashboard
// polling job status at high frequency would flush every real solve
// latency out of the ring — both would make p50/p90/p99 meaningless as
// query latency.
func (m *metrics) record(endpoint string, status int, d time.Duration, recordLatency bool) {
	now := time.Now().Unix()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total++
	m.byEndpoint[endpoint]++
	switch {
	case status >= 500:
		m.byStatus["5xx"]++
	case status >= 400:
		m.byStatus["4xx"]++
	default:
		m.byStatus["2xx"]++
	}
	if recordLatency {
		m.lat[m.latNext] = d
		m.latNext++
		if m.latNext == len(m.lat) {
			m.latNext, m.latFull = 0, true
		}
	}
	m.window.hit(now)
}

// metricsResponse is the server's /metrics payload. Its tags declare each
// field's JSON key and Prometheus series (see writePrometheus).
type metricsResponse struct {
	UptimeS  float64 `json:"uptime_s" prom:"uptime_seconds,gauge"`
	Requests struct {
		Total       uint64            `json:"total" prom:"requests_total,counter"`
		PerEndpoint map[string]uint64 `json:"per_endpoint" prom:"endpoint_requests_total,counter,endpoint"`
		PerStatus   map[string]uint64 `json:"per_status" prom:"status_requests_total,counter,class"`
	} `json:"requests"`
	QPS struct {
		Lifetime float64 `json:"lifetime" prom:"qps_lifetime,gauge"`
		Last60S  float64 `json:"last_60s" prom:"qps_last_60s,gauge"`
	} `json:"qps"`
	// LatencyMS exposes no quantiles to Prometheus while the window is empty.
	LatencyMS struct {
		Window int     `json:"window" prom:"latency_window_samples,gauge"`
		P50    float64 `json:"p50" prom:"latency_ms,gauge,quantile=0.5,if=Window"`
		P90    float64 `json:"p90" prom:"latency_ms,gauge,quantile=0.9,if=Window"`
		P99    float64 `json:"p99" prom:"latency_ms,gauge,quantile=0.99,if=Window"`
		Max    float64 `json:"max" prom:"latency_ms_max,gauge,if=Window"`
	} `json:"latency_ms"`
	Jobs  jobCounters `json:"jobs"`
	Cache struct {
		cacheCounters
		Cap int `json:"cap" prom:"cache_capacity,gauge"`
	} `json:"cache"`
	// Anytime aggregates the adaptive-estimate counters and how many
	// requests overload shedding coarsened.
	Anytime struct {
		anytimeCounters
		PrecisionSheds uint64 `json:"precision_sheds" prom:"precision_sheds_total,counter"`
	} `json:"anytime"`
	// Datasets breaks the serving counters down per dataset now that
	// datasets come and go at runtime: request volume from the collector,
	// epoch/job/cache numbers live from each engine.
	Datasets map[string]datasetMetrics `json:"datasets" prom:"dataset_,dataset"`
	// Replication reports the server's role and, per dataset, either the
	// primary's feed fan-out or the replica's follower progress. Nil when
	// the process serves standalone (no taps, no followers).
	Replication *replicationMetrics `json:"replication,omitempty"`
}

// datasetMetrics is the per-dataset block of the /metrics payload.
type datasetMetrics struct {
	Epoch    uint64  `json:"epoch" prom:"epoch,gauge"`
	N        int     `json:"n" prom:"nodes,gauge"`
	M        int     `json:"m" prom:"edges,gauge"`
	Requests uint64  `json:"requests" prom:"requests_total,counter"`
	QPS60S   float64 `json:"qps_last_60s" prom:"qps_last_60s,gauge"`
	engineCounters
}

// engineCounters is the part of a /metrics block read from
// repro.EngineStats. Each dataset block, the global totals and the
// retained counters of closed datasets sum into it through add.
type engineCounters struct {
	Jobs      jobCounters      `json:"jobs"`
	Cache     cacheCounters    `json:"cache"`
	Anytime   anytimeCounters  `json:"anytime"`
	Mutations mutationCounters `json:"mutations"`
	// cacheCap feeds the global cache capacity; dataset blocks omit it.
	cacheCap int
}

type jobCounters struct {
	Queued    int    `json:"queued" prom:"jobs_queued,gauge"`
	Running   int    `json:"running" prom:"jobs_running,gauge"`
	Submitted uint64 `json:"submitted" prom:"jobs_submitted_total,counter"`
	Completed uint64 `json:"completed" prom:"jobs_completed_total,counter"`
	Cancelled uint64 `json:"cancelled" prom:"jobs_cancelled_total,counter"`
	Failed    uint64 `json:"failed" prom:"jobs_failed_total,counter"`
	Rejected  uint64 `json:"rejected" prom:"jobs_rejected_total,counter"`
}

type cacheCounters struct {
	Hits        uint64 `json:"hits" prom:"cache_hits_total,counter"`
	Misses      uint64 `json:"misses" prom:"cache_misses_total,counter"`
	Len         int    `json:"len" prom:"cache_entries,gauge"`
	Invalidated uint64 `json:"invalidated" prom:"cache_invalidated_total,counter"`
	// Warmed counts queries recomputed by epoch-rotation cache warming
	// (the -cache-warm flag).
	Warmed uint64 `json:"warmed" prom:"cache_warmed_total,counter"`
}

// anytimeCounters count the estimates that ran in precision mode, the
// samples they drew, and the samples an equivalent fixed-budget run would
// have wasted.
type anytimeCounters struct {
	Estimates    uint64 `json:"estimates" prom:"anytime_estimates_total,counter"`
	SamplesUsed  uint64 `json:"samples_used" prom:"anytime_samples_used_total,counter"`
	SamplesSaved uint64 `json:"samples_saved" prom:"anytime_samples_saved_total,counter"`
}

type mutationCounters struct {
	Applies uint64 `json:"applies" prom:"mutation_batches_total,counter"`
	Applied uint64 `json:"applied" prom:"mutations_applied_total,counter"`
	// ReplicatedApplies/ReplicatedApplied count batches and mutations
	// that arrived through the replication feed (ApplyReplicated plus
	// snapshot resets) — zero on a primary, where Applies counts local
	// writes instead.
	ReplicatedApplies uint64 `json:"replicated_applies" prom:"replicated_batches_total,counter"`
	ReplicatedApplied uint64 `json:"replicated_applied" prom:"replicated_mutations_total,counter"`
	// DeltaCommits/Compactions/ChainDepth report the delta-epoch commit
	// machinery: batches committed as O(batch) overlay layers, folds of
	// the layer chain back into a flat CSR, and the current chain depth
	// (0 = serving a flat snapshot).
	DeltaCommits uint64 `json:"delta_commits" prom:"delta_commits_total,counter"`
	Compactions  uint64 `json:"compactions" prom:"compactions_total,counter"`
	ChainDepth   int    `json:"chain_depth" prom:"chain_depth,gauge"`
	// Checkpoints counts the checkpoints a durable dataset cut, the
	// initial one included, and CheckpointErrors the failed attempts: while
	// they fail the WAL keeps growing.
	Checkpoints      uint64 `json:"checkpoints" prom:"checkpoints_total,counter"`
	CheckpointErrors uint64 `json:"checkpoint_errors" prom:"checkpoint_errors_total,counter"`
}

// add sums one engine's stats into c.
func (c *engineCounters) add(st repro.EngineStats) {
	c.Jobs.Queued += st.QueuedJobs
	c.Jobs.Running += st.RunningJobs
	c.Jobs.Submitted += st.SubmittedJobs
	c.Jobs.Completed += st.CompletedJobs
	c.Jobs.Cancelled += st.CancelledJobs
	c.Jobs.Failed += st.FailedJobs
	c.Jobs.Rejected += st.RejectedJobs
	c.Cache.Hits += st.CacheHits
	c.Cache.Misses += st.CacheMisses
	c.Cache.Len += st.CacheLen
	c.Cache.Invalidated += st.CacheInvalidated
	c.Cache.Warmed += st.CacheWarmed
	c.cacheCap += st.CacheCap
	c.Anytime.Estimates += st.AnytimeEstimates
	c.Anytime.SamplesUsed += st.AnytimeSamplesUsed
	c.Anytime.SamplesSaved += st.AnytimeSamplesSaved
	c.Mutations.Applies += st.Applies
	c.Mutations.Applied += st.MutationsApplied
	c.Mutations.ReplicatedApplies += st.ReplicatedApplies
	c.Mutations.ReplicatedApplied += st.ReplicatedMutations
	c.Mutations.DeltaCommits += st.DeltaCommits
	c.Mutations.Compactions += st.Compactions
	c.Mutations.ChainDepth += st.ChainDepth
	c.Mutations.Checkpoints += st.Checkpoints
	c.Mutations.CheckpointErrors += st.CheckpointErrors
}

// replicationMetrics is the replication block of /metrics.
type replicationMetrics struct {
	Role string `json:"role" prom:"role,gauge,role"`
	// Feeds is per-dataset feed state on a primary: the committed epoch the
	// feed advertises, live subscriber count, and subscribers dropped for
	// falling behind.
	Feeds map[string]feedMetrics `json:"feeds,omitempty" prom:"replication_feed_,dataset"`
	// Followers is per-dataset progress on a replica; Lag is the epoch
	// distance behind the primary as of the last frame seen.
	Followers map[string]followerMetrics `json:"followers,omitempty" prom:"replication_,dataset"`
}

type feedMetrics struct {
	Epoch       uint64 `json:"epoch" prom:"epoch,gauge"`
	Subscribers int    `json:"subscribers" prom:"subscribers,gauge"`
	Drops       uint64 `json:"drops" prom:"drops_total,counter"`
}

type followerMetrics struct {
	LastAppliedEpoch uint64 `json:"last_applied_epoch" prom:"last_applied_epoch,gauge"`
	PrimaryEpoch     uint64 `json:"primary_epoch" prom:"primary_epoch,gauge"`
	Lag              uint64 `json:"lag" prom:"lag,gauge"`
	Reconnects       uint64 `json:"reconnects" prom:"reconnects_total,counter"`
	Bootstraps       uint64 `json:"bootstraps" prom:"bootstraps_total,counter"`
	BatchesApplied   uint64 `json:"batches_applied" prom:"batches_applied_total,counter"`
}

// snapshot assembles the /metrics payload, folding in live engine stats
// from every dataset the catalog currently serves.
func (m *metrics) snapshot(catalog *repro.Catalog) metricsResponse {
	var resp metricsResponse
	now := time.Now()
	resp.UptimeS = now.Sub(m.start).Seconds()

	m.mu.Lock()
	// List — and capture the engine pointers — under m.mu (the catalog
	// never locks back into metrics, so the order is safe). Two races die
	// here: recordDataset also runs under m.mu after its dataset is
	// registered, so a counter for a name missing from this listing can
	// only be a close-race resurrection, never a just-created dataset; and
	// retireDataset folds counters into m.retired under the same lock, so
	// the pointer set and the retired copy below are mutually consistent —
	// a dataset closed after we unlock is still summed through its
	// captured engine pointer (EngineStats only ever grows), keeping the
	// global totals monotonic across retirement.
	live := catalog.List()
	liveNames := make(map[string]bool, len(live))
	engines := make(map[string]*repro.Engine, len(live))
	for _, d := range live {
		liveNames[d.Name] = true
		if eng, err := catalog.Open(d.Name); err == nil {
			engines[d.Name] = eng
		}
	}
	resp.Requests.Total = m.total
	resp.Requests.PerEndpoint = make(map[string]uint64, len(m.byEndpoint))
	for k, v := range m.byEndpoint {
		resp.Requests.PerEndpoint[k] = v
	}
	resp.Requests.PerStatus = make(map[string]uint64, len(m.byStatus))
	for k, v := range m.byStatus {
		resp.Requests.PerStatus[k] = v
	}
	m.window.advance(now.Unix())
	recent := m.window.last60()
	window := m.latNext
	if m.latFull {
		window = len(m.lat)
	}
	lats := append([]time.Duration(nil), m.lat[:window]...)
	type dsReq struct {
		requests uint64
		last60   uint64
	}
	perDataset := make(map[string]dsReq, len(m.byDataset))
	for name, dc := range m.byDataset {
		if !liveNames[name] {
			// A request racing a dataset close can re-create the counter
			// after dropDataset ran; prune it here so closed (or closed-
			// and-recreated) datasets never report ghost traffic.
			delete(m.byDataset, name)
			continue
		}
		dc.window.advance(now.Unix())
		perDataset[name] = dsReq{requests: dc.requests, last60: dc.window.last60()}
	}
	// Seed the global totals with the retained counters of closed
	// datasets; live engines add on top below.
	total := m.retired
	resp.Anytime.PrecisionSheds = m.precisionSheds
	m.mu.Unlock()

	if resp.UptimeS > 0 {
		resp.QPS.Lifetime = float64(resp.Requests.Total) / resp.UptimeS
	}
	resp.QPS.Last60S = float64(recent) / 60

	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		quantile := func(q float64) float64 {
			idx := int(q * float64(len(lats)-1))
			return float64(lats[idx].Microseconds()) / 1000
		}
		resp.LatencyMS.Window = len(lats)
		resp.LatencyMS.P50 = quantile(0.50)
		resp.LatencyMS.P90 = quantile(0.90)
		resp.LatencyMS.P99 = quantile(0.99)
		resp.LatencyMS.Max = float64(lats[len(lats)-1].Microseconds()) / 1000
	}

	resp.Datasets = make(map[string]datasetMetrics)
	for _, info := range live {
		eng, ok := engines[info.Name]
		if !ok {
			continue // closed while List ran inside the locked section
		}
		st := eng.Stats()
		total.add(st)
		dm := datasetMetrics{Epoch: info.Epoch, N: info.Nodes, M: info.Edges}
		if rq, ok := perDataset[info.Name]; ok {
			dm.Requests = rq.requests
			dm.QPS60S = float64(rq.last60) / 60
		}
		dm.add(st)
		resp.Datasets[info.Name] = dm
	}
	resp.Jobs, resp.Cache.cacheCounters, resp.Cache.Cap = total.Jobs, total.Cache, total.cacheCap
	resp.Anytime.anytimeCounters = total.Anytime
	return resp
}

// replicationSnapshot assembles the replication block, or nil for a
// standalone server.
func (s *server) replicationSnapshot() *replicationMetrics {
	switch {
	case s.taps != nil:
		rm := &replicationMetrics{Role: s.role, Feeds: make(map[string]feedMetrics)}
		for _, name := range s.taps.names() {
			tap := s.taps.get(name)
			if tap == nil {
				continue
			}
			rm.Feeds[name] = feedMetrics{
				Epoch:       tap.Epoch(),
				Subscribers: tap.Subscribers(),
				Drops:       tap.Drops(),
			}
		}
		return rm
	case s.replicas != nil:
		rm := &replicationMetrics{Role: s.role, Followers: make(map[string]followerMetrics)}
		for name, st := range s.replicas.stats() {
			rm.Followers[name] = followerMetrics{
				LastAppliedEpoch: st.LastAppliedEpoch,
				PrimaryEpoch:     st.PrimaryEpoch,
				Lag:              st.Lag,
				Reconnects:       st.Reconnects,
				Bootstraps:       st.Bootstraps,
				BatchesApplied:   st.BatchesApplied,
			}
		}
		return rm
	}
	return nil
}

// handleMetrics is GET /metrics. The default rendering is the JSON payload
// above; ?format=prometheus (or an Accept header preferring text/plain)
// selects Prometheus text exposition for scrapers.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := s.metrics.snapshot(s.catalog)
	resp.Replication = s.replicationSnapshot()
	if wantsPrometheus(r) {
		writePrometheus(w, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusWriter captures the response status for the metrics middleware,
// passing Flush through so streaming endpoints keep working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request counting; recordLatency decides
// whether its durations feed the quantile window (query endpoints yes,
// streaming/polling endpoints no — see metrics.record).
func (s *server) instrument(name string, recordLatency bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.record(name, sw.status, time.Since(start), recordLatency)
	}
}
