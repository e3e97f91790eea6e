package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded reports that Engine.Submit rejected a job because the
// bounded queue (WithQueueDepth) was full — the load-shedding signal a
// serving tier maps to HTTP 503 and a client maps to backoff-and-retry.
// Rejection is immediate and side-effect free: nothing was queued.
var ErrOverloaded = errors.New("job queue overloaded")

// JobState is the lifecycle phase of a submitted job.
type JobState string

// Job lifecycle states. Queued and Running are transient; Done, Cancelled
// and Failed are terminal (Done() is closed exactly when a terminal state
// is entered).
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobCancelled JobState = "cancelled"
	JobFailed    JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCancelled || s == JobFailed
}

// JobProgress accumulates the solver's Progress events into current
// counters: the latest pipeline stage and the per-round counts observed so
// far. Fixed-budget estimate jobs report no events (those estimators have
// no stage structure), so their progress stays zero; anytime estimates
// (Options.Precision > 0) stream StageEstimate events carrying the
// narrowing interval into Lo/Hi/Samples.
type JobProgress struct {
	// Stage is the most recently reported pipeline stage.
	Stage ProgressStage
	// Round and Total count greedy selection rounds (Total is the budget).
	Round, Total int
	// Candidates, Paths, Batches, Edges are the latest reported counts.
	Candidates, Paths, Batches, Edges int
	// Lo and Hi bound the running confidence interval of an anytime
	// estimate, and Samples counts the worlds drawn so far; all zero
	// until the first StageEstimate event.
	Lo, Hi  float64
	Samples int
	// Events is the number of progress events recorded so far.
	Events int
}

// JobStatus is one observable snapshot of a job.
type JobStatus struct {
	// ID is the engine-unique job identifier.
	ID string
	// Kind is the query kind the job runs.
	Kind QueryKind
	// Key is the canonical query fingerprint (Query.Key of the
	// canonicalized query).
	Key string
	// State is the lifecycle phase at snapshot time.
	State JobState
	// CacheHit reports that the result was served from the result cache.
	CacheHit bool
	// Progress holds the accumulated per-round progress counters.
	Progress JobProgress
	// Err is the terminal error (nil while non-terminal or on success).
	Err error
	// Enqueued, Started and Finished stamp the lifecycle transitions;
	// zero until reached.
	Enqueued, Started, Finished time.Time
}

// JobEvent is one recorded solver progress event, sequence-numbered from 1
// in emission order — the unit cmd/relmaxd streams as NDJSON.
type JobEvent struct {
	// Seq is the 1-based position in the job's event log.
	Seq int
	ProgressEvent
}

// Job is one asynchronously running query: Submit returns immediately and
// the job advances queued → running → done/cancelled/failed on the
// engine's bounded worker queue. A Job owns its cancel function — Cancel
// stops it whether queued or running (cooperatively, within one sample
// block) — and exposes its status, accumulated progress, recorded events
// and, once Done() closes, its Result. All methods are safe for concurrent
// use.
type Job struct {
	id     string
	eng    *Engine
	q      Query // canonical; Progress wraps the recorder
	key    string
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    JobState
	cacheHit bool
	res      Result
	err      error
	events   []JobEvent
	progress JobProgress
	notify   chan struct{} // closed and replaced on every change

	enqueued, started, finished time.Time
}

// Submit enqueues q as an asynchronous job and returns immediately. The
// job is detached from ctx's cancellation and deadline (values are
// preserved): an HTTP request that submits a job and returns must not kill
// it — cancellation is the job's own, via (*Job).Cancel.
//
// Admission is bounded: at most WithMaxConcurrent jobs run at once and at
// most WithQueueDepth may wait; beyond that Submit fails fast with an
// error wrapping ErrOverloaded. A query whose canonical fingerprint is
// already in the result cache completes immediately (State JobDone,
// CacheHit set) without consuming a queue slot. A query Canonicalize
// rejects — an unknown kind, sampler or method, or a node outside the
// graph — returns its error here, and no job is counted.
func (e *Engine) Submit(ctx context.Context, q Query) (*Job, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("repro: Submit: %w", ErrClosed)
	}
	cq, err := e.Canonicalize(q)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	j := &Job{
		id:       fmt.Sprintf("e%d-j%d", e.id, e.jobSeq.Add(1)),
		eng:      e,
		key:      cq.Key(),
		done:     make(chan struct{}),
		notify:   make(chan struct{}),
		state:    JobQueued,
		enqueued: time.Now(),
	}
	user := cq.Progress
	cq.Progress = func(ev ProgressEvent) {
		j.record(ev)
		if user != nil {
			user(ev)
		}
	}
	j.q = cq
	e.submittedJobs.Add(1)
	// Cache fast path: serve without consuming a queue slot. A miss is not
	// counted here — the job probes again when it runs (the entry may be
	// filled while it queues), and that probe is the counted one.
	if e.cache != nil {
		if res, ok := e.cache.lookup(j.key, cq.precision(), false); ok {
			j.finish(res, true, nil)
			return j, nil
		}
	}
	// Admission bounds the total in flight (running + waiting): capacity is
	// exactly maxConcurrent + queueDepth, independent of how far the worker
	// goroutines have progressed.
	if e.inFlightJobs.Add(1) > int64(e.maxConcurrent+e.queueDepth) {
		e.inFlightJobs.Add(-1)
		e.rejectedJobs.Add(1)
		return nil, fmt.Errorf("repro: Submit: %d jobs in flight (max %d running + %d queued): %w",
			e.maxConcurrent+e.queueDepth, e.maxConcurrent, e.queueDepth, ErrOverloaded)
	}
	e.queuedJobs.Add(1)
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	j.cancel = cancel
	// Track the job until it terminates so Close can cancel stragglers. A
	// Close racing this Submit is benign either way: the job was admitted,
	// and Close snapshots liveJobs after setting the closed flag, so it
	// sees (and cancels) this job once track returns.
	e.track(j)
	if e.closed.Load() {
		j.Cancel()
	}
	go j.run(jctx)
	return j, nil
}

func (e *Engine) track(j *Job) {
	e.liveMu.Lock()
	e.liveJobs[j] = struct{}{}
	e.liveMu.Unlock()
}

func (e *Engine) untrack(j *Job) {
	e.liveMu.Lock()
	delete(e.liveJobs, j)
	e.liveMu.Unlock()
}

// run takes the job through the bounded queue: wait for a concurrency
// slot (abandoning the wait if cancelled while queued), execute, finish.
func (j *Job) run(ctx context.Context) {
	e := j.eng
	select {
	case e.jobSem <- struct{}{}:
	case <-ctx.Done():
		e.queuedJobs.Add(-1)
		e.inFlightJobs.Add(-1)
		j.finish(Result{Kind: j.q.Kind}, false, fmt.Errorf("repro: job %s cancelled while queued: %w", j.id, ctx.Err()))
		return
	}
	e.queuedJobs.Add(-1)
	e.runningJobs.Add(1)
	j.setRunning()
	res, hit, err := e.safeRun(ctx, j.q)
	e.runningJobs.Add(-1)
	<-e.jobSem
	e.inFlightJobs.Add(-1)
	j.finish(res, hit, err)
}

// safeRun executes runCanonical with panic containment: jobs run on
// detached goroutines where an escaped panic would kill the whole process
// (the synchronous paths at least had net/http's per-connection recover),
// so a panicking solver becomes a failed job instead.
func (e *Engine) safeRun(ctx context.Context, cq Query) (res Result, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, hit = Result{Kind: cq.Kind}, false
			err = fmt.Errorf("repro: %s query panicked: %v", cq.Kind, r)
		}
	}()
	return e.runCanonical(ctx, cq)
}

// ID returns the engine-unique job identifier.
func (j *Job) ID() string { return j.id }

// Key returns the canonical query fingerprint the job runs under.
func (j *Job) Key() string { return j.key }

// Epoch returns the graph epoch the job pinned at Submit: the job computes
// on that snapshot even if Engine.Apply rotates the graph while it waits
// or runs.
func (j *Job) Epoch() uint64 { return j.q.epoch }

// Kind returns the job's query kind.
func (j *Job) Kind() QueryKind { return j.q.Kind }

// Done returns a channel closed exactly when the job reaches a terminal
// state; after that Result returns without blocking.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation: a queued job finishes as
// JobCancelled without running; a running job stops within one sample
// block / round boundary, keeping the partial result the solver had
// committed. Cancel is idempotent and a no-op on terminal jobs.
func (j *Job) Cancel() {
	if j.cancel != nil {
		j.cancel()
	}
}

// Status returns a consistent snapshot of the job's state, progress and
// timestamps.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Kind:     j.q.Kind,
		Key:      j.key,
		State:    j.state,
		CacheHit: j.cacheHit,
		Progress: j.progress,
		Err:      j.err,
		Enqueued: j.enqueued,
		Started:  j.started,
		Finished: j.finished,
	}
}

// Result blocks until the job is terminal, then returns its result and
// error. On cancellation the Result carries whatever partial answer the
// solver had committed (see Engine.Solve's contract) and the error wraps
// context.Canceled.
func (j *Job) Result() (Result, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// Wait blocks until the job finishes or ctx fires; in the latter case the
// job is cancelled (cooperatively — the wait still lasts up to one sample
// block) and its partial result returned. A wait ended by ctx's deadline
// reports context.DeadlineExceeded instead of the job's own
// context.Canceled, so synchronous callers (the /v1 HTTP shims, the CLI)
// keep the deadline taxonomy the caller configured.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		j.Cancel()
		<-j.done
	}
	res, err := j.Result()
	if err != nil && errors.Is(err, context.Canceled) && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("%v: %w", err, context.DeadlineExceeded)
	}
	return res, err
}

// Events returns the progress events recorded after the first `after`
// (pass 0 for all, or the count already consumed to get only new ones),
// plus a signal channel that is closed when the job changes — more events,
// a state transition, or termination. Streaming consumers loop: drain,
// then select on the signal channel and Done().
func (j *Job) Events(after int) ([]JobEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []JobEvent
	if after < 0 {
		after = 0
	}
	if after < len(j.events) {
		out = append(out, j.events[after:]...)
	}
	return out, j.notify
}

// record appends one solver progress event and folds it into the
// accumulated counters. It runs inline on the solving goroutine.
func (j *Job) record(ev ProgressEvent) {
	j.mu.Lock()
	j.events = append(j.events, JobEvent{Seq: len(j.events) + 1, ProgressEvent: ev})
	j.progress.Events = len(j.events)
	j.progress.Stage = ev.Stage
	if ev.Round != 0 {
		j.progress.Round = ev.Round
	}
	if ev.Total != 0 {
		j.progress.Total = ev.Total
	}
	if ev.Candidates != 0 {
		j.progress.Candidates = ev.Candidates
	}
	if ev.Paths != 0 {
		j.progress.Paths = ev.Paths
	}
	if ev.Batches != 0 {
		j.progress.Batches = ev.Batches
	}
	if ev.Edges != 0 {
		j.progress.Edges = ev.Edges
	}
	// Interval fields fold on the stage, not on non-zero values: Lo (and
	// on hopeless pairs even Hi) can legitimately be 0.
	if ev.Stage == StageEstimate || ev.Samples != 0 {
		j.progress.Lo, j.progress.Hi = ev.Lo, ev.Hi
		j.progress.Samples = ev.Samples
	}
	j.broadcastLocked()
	j.mu.Unlock()
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.broadcastLocked()
	j.mu.Unlock()
}

// finish moves the job to its terminal state, records counters, wakes
// every waiter and releases the job context.
func (j *Job) finish(res Result, hit bool, err error) {
	e := j.eng
	j.mu.Lock()
	j.res, j.err, j.cacheHit = res, err, hit
	// Release the pinned snapshot and the progress closure: a terminal job
	// can be retained indefinitely (relmaxd's job store keeps the last
	// 1024), and under a mutation workload each one would otherwise pin a
	// whole per-epoch graph clone. Kind/epoch/key stay for Status.
	j.q.snap = nil
	j.q.Progress = nil
	switch {
	case err == nil:
		j.state = JobDone
		e.completedJobs.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = JobCancelled
		e.cancelledJobs.Add(1)
	default:
		j.state = JobFailed
		e.failedJobs.Add(1)
	}
	j.finished = time.Now()
	j.broadcastLocked()
	j.mu.Unlock()
	e.untrack(j)
	close(j.done)
	if j.cancel != nil {
		j.cancel() // release the context's resources
	}
}

func (j *Job) broadcastLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// engineSeq numbers engines process-wide so job IDs stay unique across
// engines (a multi-dataset server keys its job store by bare job ID).
var engineSeq atomic.Int64

// EngineStats is a point-in-time snapshot of the engine's serving
// counters — the feed for cmd/relmaxd's /metrics endpoint.
type EngineStats struct {
	// QueuedJobs and RunningJobs are current gauges; MaxConcurrent and
	// QueueDepth the configured bounds.
	QueuedJobs, RunningJobs   int
	MaxConcurrent, QueueDepth int
	// SubmittedJobs counts every Submit (including cache hits and
	// rejections); CompletedJobs/CancelledJobs/FailedJobs the terminal
	// outcomes; RejectedJobs the ErrOverloaded fast-fails.
	SubmittedJobs, CompletedJobs, CancelledJobs, FailedJobs, RejectedJobs uint64
	// Epoch is the current graph epoch; Applies and MutationsApplied count
	// the committed Engine.Apply batches and the individual mutations in
	// them.
	Epoch                     uint64
	Applies, MutationsApplied uint64
	// ReplicatedApplies and ReplicatedMutations count batches committed via
	// ApplyReplicated (plus re-bootstraps via ResetToSnapshot) and the
	// mutations in them — replica-side traffic, disjoint from Applies /
	// MutationsApplied which count only local Apply calls.
	ReplicatedApplies, ReplicatedMutations uint64
	// DeltaCommits counts the batches (local or replicated) committed, each
	// as one O(batch) delta layer; Compactions the folds of a delta chain back into a flat CSR
	// (threshold, checkpoint or Engine.Compact). ChainDepth is the current
	// snapshot's layer count — 0 whenever the engine is serving a flat CSR.
	DeltaCommits, Compactions uint64
	ChainDepth                int
	// CacheWarmed counts queries recomputed by epoch-rotation cache warming
	// (WithCacheWarming): popular fingerprints from the outgoing epoch
	// re-submitted and answered on the new one.
	CacheWarmed uint64
	// CacheHits/CacheMisses count result-cache lookups (zero when the
	// cache is disabled); CacheLen/CacheCap its current and maximum size.
	// CacheInvalidated counts stale-epoch entries reclaimed by the lazy
	// invalidation sweep after mutations.
	CacheHits, CacheMisses uint64
	CacheLen, CacheCap     int
	CacheInvalidated       uint64
	// AnytimeEstimates counts completed anytime (Precision-bounded)
	// estimates; AnytimeSamplesUsed the samples they actually drew and
	// AnytimeSamplesSaved the samples their MaxZ budgets allowed but the
	// early precision stop avoided — the adaptive win over fixed budgets.
	AnytimeEstimates, AnytimeSamplesUsed, AnytimeSamplesSaved uint64
	// VectorHits and VectorMisses count the lookups of candidate
	// elimination's From(s) and To(t) reliability vectors in the per-epoch
	// memo: a hit reuses a vector an earlier solve on the same epoch
	// sampled, a miss samples it.
	VectorHits, VectorMisses uint64
	// Durable reports whether the engine persists its graph (WithStorage);
	// Checkpoints counts checkpoints cut (including the initial one) and
	// CheckpointErrors the checkpoint attempts that failed (the batches stay
	// safe in the WAL; the next Apply retries).
	Durable                       bool
	Checkpoints, CheckpointErrors uint64
	// Closed reports that the engine was retired (Engine.Close).
	Closed bool
}

// Stats returns the engine's current serving counters.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		QueuedJobs:          int(e.queuedJobs.Load()),
		RunningJobs:         int(e.runningJobs.Load()),
		MaxConcurrent:       e.maxConcurrent,
		QueueDepth:          e.queueDepth,
		SubmittedJobs:       e.submittedJobs.Load(),
		CompletedJobs:       e.completedJobs.Load(),
		CancelledJobs:       e.cancelledJobs.Load(),
		FailedJobs:          e.failedJobs.Load(),
		RejectedJobs:        e.rejectedJobs.Load(),
		Epoch:               e.Epoch(),
		Applies:             e.applies.Load(),
		MutationsApplied:    e.mutationsApplied.Load(),
		ReplicatedApplies:   e.replicatedApplies.Load(),
		ReplicatedMutations: e.replicatedMutations.Load(),
		DeltaCommits:        e.deltaCommits.Load(),
		Compactions:         e.compactions.Load(),
		ChainDepth:          e.snap.Load().csr.Depth(),
		CacheWarmed:         e.cacheWarmed.Load(),
		AnytimeEstimates:    e.anytimeEstimates.Load(),
		AnytimeSamplesUsed:  e.anytimeSamplesUsed.Load(),
		AnytimeSamplesSaved: e.anytimeSamplesSaved.Load(),
		VectorHits:          e.vecCounts.Hits.Load(),
		VectorMisses:        e.vecCounts.Misses.Load(),
		Durable:             e.store != nil,
		Checkpoints:         e.checkpoints.Load(),
		CheckpointErrors:    e.checkpointErrors.Load(),
		Closed:              e.closed.Load(),
	}
	if e.cache != nil {
		st.CacheHits = e.cache.hits.Load()
		st.CacheMisses = e.cache.misses.Load()
		st.CacheLen = e.cache.len()
		st.CacheCap = e.cache.cap
		st.CacheInvalidated = e.cache.invalidated.Load()
	}
	return st
}
