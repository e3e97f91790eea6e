package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro"
)

// retainedJobs bounds how many jobs the store keeps for status queries;
// beyond it the oldest terminal jobs are evicted. Live jobs are never
// evicted (their number is already bounded by the engines' queue
// capacity).
const retainedJobs = 1024

// jobStore indexes submitted jobs by ID for the /v2/jobs/{id} family.
// Job IDs are engine-assigned and unique across the engines of one
// process, so one flat map serves every dataset.
type jobStore struct {
	mu    sync.Mutex
	jobs  map[string]*storedJob
	order []string // insertion order, for eviction
	max   int
}

type storedJob struct {
	dataset string
	job     *repro.Job
	// shedPrecision is non-zero when overload shedding widened the job's
	// requested precision before submit; the value is the precision actually
	// served, repeated in the result payload so the client can see its
	// answer is coarser than asked.
	shedPrecision float64
}

func newJobStore(max int) *jobStore {
	return &jobStore{jobs: make(map[string]*storedJob), max: max}
}

// add indexes the job and returns the single stored record (the handler's
// response and later GETs serve the same *storedJob).
func (st *jobStore) add(dataset string, job *repro.Job, shedPrecision float64) *storedJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := job.ID()
	sj := &storedJob{dataset: dataset, job: job, shedPrecision: shedPrecision}
	st.jobs[id] = sj
	st.order = append(st.order, id)
	if len(st.jobs) <= st.max {
		return sj
	}
	// Evict the oldest terminal job; live ones are skipped, and so is the
	// job just added — a cache-hit job arrives already terminal and must
	// stay resolvable after its 202 response.
	for i, old := range st.order {
		if old == id {
			continue
		}
		osj, ok := st.jobs[old]
		if !ok {
			continue
		}
		if osj.job.Status().State.Terminal() {
			delete(st.jobs, old)
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	return sj
}

func (st *jobStore) get(id string) (*storedJob, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sj, ok := st.jobs[id]
	return sj, ok
}

// closeDataset retires a dataset's jobs when the catalog closes it:
// terminal jobs are evicted immediately (their dataset no longer resolves,
// so nobody can act on their results), while non-terminal jobs are
// cancelled but stay resolvable until they land — a client polling its job
// must observe the "cancelled" transition, not a sudden 404. Once
// terminal, they age out through the normal eviction pass. Returns the
// counts for the DELETE response.
func (st *jobStore) closeDataset(dataset string) (evicted, cancelled int) {
	st.mu.Lock()
	var cancel []*repro.Job
	keep := st.order[:0]
	for _, id := range st.order {
		sj, ok := st.jobs[id]
		if !ok || sj.dataset != dataset {
			keep = append(keep, id)
			continue
		}
		if sj.job.Status().State.Terminal() {
			delete(st.jobs, id)
			evicted++
			continue
		}
		cancel = append(cancel, sj.job)
		cancelled++
		keep = append(keep, id)
	}
	st.order = keep
	st.mu.Unlock()
	// Cancel outside the lock: Cancel wakes waiters synchronously and must
	// not serialize against concurrent store lookups.
	for _, j := range cancel {
		j.Cancel()
	}
	return evicted, cancelled
}

// jobRequest is the JSON body of POST /v2/jobs: one query of any kind.
// Kind defaults to "solve". Zero-valued solver parameters inherit the
// engine defaults, exactly like /v1.
type jobRequest struct {
	Dataset string `json:"dataset,omitempty"`
	Kind    string `json:"kind,omitempty"`
	S       int32  `json:"s,omitempty"`
	T       int32  `json:"t,omitempty"`
	// Sources/Targets/Aggregate parameterize kind "multi".
	Sources   []int32 `json:"sources,omitempty"`
	Targets   []int32 `json:"targets,omitempty"`
	Aggregate string  `json:"aggregate,omitempty"`
	// Budget parameterizes kind "total-budget".
	Budget float64 `json:"budget,omitempty"`
	// Pairs parameterize kind "estimate-many".
	Pairs   [][2]int32 `json:"pairs,omitempty"`
	Method  string     `json:"method,omitempty"`
	K       int        `json:"k,omitempty"`
	Zeta    float64    `json:"zeta,omitempty"`
	R       int        `json:"r,omitempty"`
	L       int        `json:"l,omitempty"`
	H       int        `json:"h,omitempty"`
	Z       int        `json:"z,omitempty"`
	Sampler string     `json:"sampler,omitempty"`
	Seed    int64      `json:"seed,omitempty"`
	// Precision switches estimates to anytime mode: sampling stops as soon
	// as the confidence interval's half-width reaches it (or MaxZ samples
	// were spent, or the deadline hit). MaxZ caps the adaptive budget;
	// zero inherits the anytime default.
	Precision float64 `json:"precision,omitempty"`
	MaxZ      int     `json:"max_z,omitempty"`
	// TimeoutMS bounds the job's total lifetime — queue wait plus runtime —
	// shortening (never extending) the server default. It is the
	// end-to-end deadline a client would arm itself, so shed-worthy
	// overload (long queue waits) counts against it; an expired job
	// finishes "cancelled".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (req *jobRequest) checkLimits(l limits) error {
	switch {
	case req.Zeta < 0 || req.Zeta > 1:
		return fmt.Errorf("zeta %v outside [0,1]", req.Zeta)
	case req.Z < 0 || req.Z > l.MaxZ:
		return fmt.Errorf("z %d outside [0,%d]", req.Z, l.MaxZ)
	case req.Precision < 0 || req.Precision > 1:
		return fmt.Errorf("precision %v outside [0,1]", req.Precision)
	case req.MaxZ < 0 || req.MaxZ > l.MaxZ:
		return fmt.Errorf("max_z %d outside [0,%d]", req.MaxZ, l.MaxZ)
	case req.K < 0 || req.K > l.MaxK:
		return fmt.Errorf("k %d outside [0,%d]", req.K, l.MaxK)
	case req.R < 0 || req.R > l.MaxRL:
		return fmt.Errorf("r %d outside [0,%d]", req.R, l.MaxRL)
	case req.L < 0 || req.L > l.MaxRL:
		return fmt.Errorf("l %d outside [0,%d]", req.L, l.MaxRL)
	case req.H < 0:
		return fmt.Errorf("h %d is negative (0 disables the hop constraint)", req.H)
	case len(req.Pairs) > l.MaxPairs:
		return fmt.Errorf("batch of %d pairs exceeds the %d-pair ceiling", len(req.Pairs), l.MaxPairs)
	case len(req.Sources) > l.MaxPairs || len(req.Targets) > l.MaxPairs:
		return fmt.Errorf("source/target set exceeds the %d-node ceiling", l.MaxPairs)
	}
	return nil
}

// query translates the wire request into the engine's typed Query.
func (req *jobRequest) query() repro.Query {
	kind := repro.QueryKind(req.Kind)
	if req.Kind == "" {
		kind = repro.QuerySolve
	}
	q := repro.Query{
		Kind:      kind,
		S:         req.S,
		T:         req.T,
		Aggregate: repro.Aggregate(req.Aggregate),
		Budget:    req.Budget,
		Method:    repro.Method(req.Method),
	}
	for _, v := range req.Sources {
		q.Sources = append(q.Sources, repro.NodeID(v))
	}
	for _, v := range req.Targets {
		q.Targets = append(q.Targets, repro.NodeID(v))
	}
	for _, p := range req.Pairs {
		q.Pairs = append(q.Pairs, repro.PairQuery{S: p[0], T: p[1]})
	}
	if req.K != 0 || req.Zeta != 0 || req.R != 0 || req.L != 0 || req.H != 0 ||
		req.Z != 0 || req.Sampler != "" || req.Seed != 0 ||
		req.Precision != 0 || req.MaxZ != 0 {
		q.Options = &repro.Options{
			K: req.K, Zeta: req.Zeta, R: req.R, L: req.L, H: req.H,
			Z: req.Z, Sampler: req.Sampler, Seed: req.Seed,
			Precision: req.Precision, MaxZ: req.MaxZ,
		}
	}
	return q
}

// progressJSON mirrors repro.JobProgress.
type progressJSON struct {
	Stage      string `json:"stage,omitempty"`
	Round      int    `json:"round,omitempty"`
	Total      int    `json:"total,omitempty"`
	Candidates int    `json:"candidates,omitempty"`
	Paths      int    `json:"paths,omitempty"`
	Batches    int    `json:"batches,omitempty"`
	Edges      int    `json:"edges,omitempty"`
	// Lo/Hi/Samples track the narrowing confidence interval of an anytime
	// estimate; a poller watches [lo,hi] close in on the answer live.
	Lo      float64 `json:"lo,omitempty"`
	Hi      float64 `json:"hi,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Events  int     `json:"events"`
}

// jobJSON is the status payload of the /v2/jobs family. Result is present
// only for successfully finished jobs; its shape depends on the kind
// (solve → the /v1 solve payload, estimate → {"reliability": x}, ...).
type jobJSON struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Kind    string `json:"kind"`
	// Epoch is the graph epoch the job pinned at submit; every status
	// response repeats it (and the X-Repro-Epoch header) so clients can
	// bound staleness behind the router.
	Epoch    uint64        `json:"epoch"`
	Status   string        `json:"status"`
	CacheHit bool          `json:"cache_hit"`
	Key      string        `json:"key"`
	Progress *progressJSON `json:"progress,omitempty"`
	Result   any           `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
}

func jobJSONOf(sj *storedJob) jobJSON {
	st := sj.job.Status()
	jj := jobJSON{
		ID:       st.ID,
		Dataset:  sj.dataset,
		Kind:     string(st.Kind),
		Epoch:    sj.job.Epoch(),
		Status:   string(st.State),
		CacheHit: st.CacheHit,
		Key:      st.Key,
	}
	if st.Progress.Events > 0 {
		p := st.Progress
		jj.Progress = &progressJSON{
			Stage: string(p.Stage), Round: p.Round, Total: p.Total,
			Candidates: p.Candidates, Paths: p.Paths, Batches: p.Batches,
			Edges: p.Edges, Lo: p.Lo, Hi: p.Hi, Samples: p.Samples,
			Events: p.Events,
		}
	}
	if st.State.Terminal() {
		res, err := sj.job.Result() // terminal: returns without blocking
		if err != nil {
			jj.Error = err.Error()
		} else {
			jj.Result = resultJSONOf(res, jj.Epoch, sj.shedPrecision)
		}
	}
	return jj
}

// resultJSONOf renders a query result in the kind's wire shape. Every kind
// carries the job's pinned epoch so /v1 and /v2 payloads for the same query
// are identical field for field. shed is the precision overload shedding
// widened the request to (0 when it did not).
func resultJSONOf(res repro.Result, epoch uint64, shed float64) any {
	switch res.Kind {
	case repro.QuerySolve:
		sr := solveResponseOf(res.Solution)
		sr.Epoch = epoch
		return sr
	case repro.QueryMulti:
		m := res.Multi
		return map[string]any{
			"epoch":     epoch,
			"method":    string(m.Method),
			"aggregate": string(m.Aggregate),
			"edges":     toEdgeJSON(m.Edges),
			"base":      m.Base,
			"after":     m.After,
			"gain":      m.Gain,
		}
	case repro.QueryTotalBudget:
		tb := res.TotalBudget
		return map[string]any{
			"epoch": epoch,
			"edges": toEdgeJSON(tb.Edges),
			"spent": tb.Spent,
			"base":  tb.Base,
			"after": tb.After,
			"gain":  tb.Gain,
		}
	case repro.QueryEstimate:
		out := map[string]any{"epoch": epoch, "reliability": res.Reliability}
		if a := res.Anytime; a != nil {
			out["lo"], out["hi"] = a.Lo, a.Hi
			out["samples_used"] = a.SamplesUsed
			out["stop_reason"] = a.StopReason
			out["precision"] = a.Precision
			if shed > 0 {
				out["shed_precision"] = shed
			}
		}
		return out
	case repro.QueryEstimateMany:
		return estimateResponseOf(res, epoch, shed)
	}
	return nil
}

func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !s.decode(w, r, &req) {
		return
	}
	eng, dataset, err := s.engineFor(req.Dataset)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	if err := req.checkLimits(s.limits); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.metrics.recordDataset(dataset)
	shed := s.shedPrecisionFor(eng, &req)
	job, err := eng.Submit(r.Context(), req.query())
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	// The job is detached from the request; its total lifetime (queue wait
	// + runtime) is bounded by the server timeout, shortened by
	// timeout_ms, enforced by cancellation.
	if to := s.effectiveTimeout(req.TimeoutMS); to > 0 {
		go func() {
			select {
			case <-job.Done():
			case <-time.After(to):
				job.Cancel()
			}
		}()
	}
	sj := s.jobs.add(dataset, job, shed)
	setEpochHeader(w, job.Epoch())
	writeJSON(w, http.StatusAccepted, jobJSONOf(sj))
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	sj, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("id")})
		return
	}
	setEpochHeader(w, sj.job.Epoch())
	writeJSON(w, http.StatusOK, jobJSONOf(sj))
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	sj, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("id")})
		return
	}
	sj.job.Cancel()
	// Cancellation is cooperative; report the current state and let the
	// client poll GET /v2/jobs/{id} until it lands (within one sample
	// block).
	setEpochHeader(w, sj.job.Epoch())
	writeJSON(w, http.StatusAccepted, jobJSONOf(sj))
}

// handleJobEvents streams the job's progress events as NDJSON: one line
// per recorded event as they arrive, then one final status line when the
// job terminates. The stream also ends when the client disconnects.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	sj, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("id")})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before blocking, so a client of a job that
		// emits no events (estimates) still sees the stream established
		// instead of a silent connection until the job terminates.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	seen := 0
	for {
		events, changed := sj.job.Events(seen)
		for _, ev := range events {
			line := map[string]any{
				"seq": ev.Seq, "stage": string(ev.Stage),
				"round": ev.Round, "total": ev.Total,
				"candidates": ev.Candidates, "paths": ev.Paths,
				"batches": ev.Batches, "edges": ev.Edges,
			}
			// Anytime estimate events carry the narrowing interval; keyed on
			// the stage (not a non-zero lo — lo can legitimately be 0).
			if ev.Stage == repro.StageEstimate || ev.Samples != 0 {
				line["lo"], line["hi"] = ev.Lo, ev.Hi
				line["samples"] = ev.Samples
			}
			_ = enc.Encode(line)
		}
		seen += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		st := sj.job.Status()
		if st.State.Terminal() {
			// Drain anything recorded between the snapshot above and the
			// terminal transition, then close with a status line.
			if tail, _ := sj.job.Events(seen); len(tail) == 0 {
				final := map[string]any{"done": true, "status": string(st.State), "cache_hit": st.CacheHit}
				if st.Err != nil {
					final["error"] = st.Err.Error()
				}
				_ = enc.Encode(final)
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-sj.job.Done():
		case <-r.Context().Done():
			return
		}
	}
}
