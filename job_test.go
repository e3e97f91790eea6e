package repro

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowEstimateQuery is a query big enough to stay running until cancelled
// on any hardware, but cheap to start.
func slowEstimateQuery() Query {
	return Query{Kind: QueryEstimate, S: 0, T: 17, Options: &Options{Z: 50_000_000}}
}

func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not terminate: %+v", j.ID(), j.Status())
	}
	return j.Status()
}

// TestJobLifecycleDone: a submitted job advances queued → running → done,
// closes Done exactly once, and its Result matches the synchronous path
// bit for bit.
func TestJobLifecycleDone(t *testing.T) {
	g := engineTestGraph(t)
	opt := Options{K: 2, Z: 200, Seed: 9, R: 8, L: 8}
	eng, err := NewEngine(g, WithSolverDefaults(opt))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Solve(context.Background(), Request{S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	job, err := eng.Submit(context.Background(), Query{Kind: QuerySolve, S: 0, T: 39, Method: MethodBE})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != JobDone {
		t.Fatalf("state = %s (err %v), want done", st.State, st.Err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(want, res.Solution) {
		t.Fatalf("job result diverged from synchronous solve:\nsync %+v\njob  %+v", want, res.Solution)
	}
	if st.Enqueued.IsZero() || st.Started.IsZero() || st.Finished.IsZero() {
		t.Fatalf("lifecycle timestamps missing: %+v", st)
	}
	// Progress events were recorded and accumulated into the status.
	events, _ := job.Events(0)
	if len(events) == 0 || st.Progress.Events != len(events) {
		t.Fatalf("progress events not recorded: %d events, status %+v", len(events), st.Progress)
	}
	if st.Progress.Candidates == 0 || st.Progress.Round == 0 {
		t.Fatalf("per-round progress not accumulated: %+v", st.Progress)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
}

// TestJobCancelWhileRunning: cancelling a running job must land within one
// sample block and report JobCancelled.
func TestJobCancelWhileRunning(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	job, err := eng.Submit(context.Background(), slowEstimateQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it actually runs, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for job.Status().State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", job.Status())
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	st := waitTerminal(t, job)
	if st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled (err %v)", st.State, st.Err)
	}
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job error %v does not wrap context.Canceled", err)
	}
}

// TestJobCancelWhileQueued: with a single worker slot occupied by a slow
// job, a queued job cancelled before it starts must finish JobCancelled
// without ever running.
func TestJobCancelWhileQueued(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithMaxConcurrent(1), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := eng.Submit(context.Background(), slowEstimateQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		blocker.Cancel()
		waitTerminal(t, blocker)
	}()
	// Wait until the blocker holds the single worker slot, so the next
	// submission cannot race it for the semaphore.
	deadline := time.Now().Add(30 * time.Second)
	for blocker.Status().State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", blocker.Status())
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: 1, T: 22})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status(); st.State != JobQueued {
		t.Fatalf("second job is %s, want queued behind the single slot", st.State)
	}
	queued.Cancel()
	st := waitTerminal(t, queued)
	if st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if !st.Started.IsZero() {
		t.Fatalf("cancelled-while-queued job reports a start time: %+v", st)
	}
}

// TestSubmitOverloaded: submissions beyond maxConcurrent+queueDepth fail
// fast with ErrOverloaded, and the engine recovers once the queue drains.
func TestSubmitOverloaded(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithMaxConcurrent(1), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	// Slot 1 runs, 2 wait; the pool may briefly leave a finished slot
	// occupied, so tolerate the scheduler by submitting exactly capacity.
	for i := 0; i < 3; i++ {
		j, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: NodeID(i), T: 17,
			Options: &Options{Z: 50_000_000}})
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if _, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: 5, T: 17,
		Options: &Options{Z: 50_000_000}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity submit error %v does not wrap ErrOverloaded", err)
	}
	if got := eng.Stats().RejectedJobs; got != 1 {
		t.Fatalf("RejectedJobs = %d, want 1", got)
	}
	for _, j := range jobs {
		j.Cancel()
		waitTerminal(t, j)
	}
	// Capacity is released: a small job must be accepted and finish.
	j, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: 0, T: 17})
	if err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
	if st := waitTerminal(t, j); st.State != JobDone {
		t.Fatalf("post-drain job = %s (err %v)", st.State, st.Err)
	}
}

// TestQueueDepthZero: an explicit zero queue depth means strict shedding —
// admission capacity is exactly the running slots.
func TestQueueDepthZero(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g, WithMaxConcurrent(1), WithQueueDepth(0))
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.QueueDepth != 0 {
		t.Fatalf("QueueDepth = %d, want 0 (explicit zero must not default to 64)", st.QueueDepth)
	}
	blocker, err := eng.Submit(context.Background(), slowEstimateQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		blocker.Cancel()
		waitTerminal(t, blocker)
	}()
	if _, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: 1, T: 22}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second submit error %v does not wrap ErrOverloaded", err)
	}
}

// TestSubmitStorm hammers Submit from many goroutines under -race: every
// accepted job must terminate, identical queries must produce identical
// results, and the bookkeeping must balance.
func TestSubmitStorm(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g,
		WithSolverDefaults(Options{K: 2, Z: 150, Seed: 9, R: 6, L: 6}),
		WithMaxConcurrent(4), WithQueueDepth(256), WithResultCache(32))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Estimate(context.Background(), 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				q := Query{Kind: QueryEstimate, S: 0, T: 17}
				if k%2 == 1 {
					q = Query{Kind: QueryEstimateMany, Pairs: []PairQuery{{S: 0, T: 9}, {S: 1, T: 22}}}
				}
				j, err := eng.Submit(context.Background(), q)
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d submit %d: %w", i, k, err)
					return
				}
				select {
				case <-j.Done():
				case <-time.After(60 * time.Second):
					errCh <- fmt.Errorf("goroutine %d job %s stuck", i, j.ID())
					return
				}
				res, err := j.Result()
				if err != nil {
					errCh <- err
					return
				}
				if q.Kind == QueryEstimate && res.Reliability != want {
					errCh <- fmt.Errorf("storm estimate diverged: %v vs %v", res.Reliability, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.QueuedJobs != 0 || st.RunningJobs != 0 {
		t.Fatalf("queue did not drain: %+v", st)
	}
	if st.CompletedJobs != goroutines*perG {
		t.Fatalf("CompletedJobs = %d, want %d", st.CompletedJobs, goroutines*perG)
	}
	if st.CacheHits == 0 {
		t.Fatalf("identical storm queries produced no cache hits: %+v", st)
	}
}

// TestSubmitDetachedFromSubmitterContext: cancelling the context passed to
// Submit must NOT kill the job — jobs own their lifecycle.
func TestSubmitDetachedFromSubmitterContext(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job, err := eng.Submit(ctx, Query{Kind: QueryEstimate, S: 0, T: 17})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if st := waitTerminal(t, job); st.State != JobDone {
		t.Fatalf("job inherited the submitter's cancellation: %s (err %v)", st.State, st.Err)
	}
}

// TestJobPanicBecomesFailedJob: a solver panic on the detached job
// goroutine must be contained as a failed job, never crash the process.
// Progress callbacks run inline on the solving goroutine, so a panicking
// one stands in for a solver panic.
func TestJobPanicBecomesFailedJob(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	j, err := eng.Submit(context.Background(), Query{
		Kind: QuerySolve, S: 0, T: 39, Method: MethodBE,
		Options:  &Options{K: 2, Z: 100, R: 6, L: 6},
		Progress: func(ProgressEvent) { panic("progress callback failed") },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != JobFailed {
		t.Fatalf("state = %s (err %v), want failed", st.State, st.Err)
	}
	if st.Err == nil || !strings.Contains(st.Err.Error(), "panicked") {
		t.Fatalf("panic not reported in the job error: %v", st.Err)
	}
	// The engine must still serve: slots and counters were released.
	if rel, err := eng.Estimate(context.Background(), 0, 17); err != nil || rel <= 0 {
		t.Fatalf("engine unusable after a panicked job: %v %v", rel, err)
	}
	stats := eng.Stats()
	if stats.QueuedJobs != 0 || stats.RunningJobs != 0 || stats.FailedJobs != 1 {
		t.Fatalf("bookkeeping after panic: %+v", stats)
	}
}

// TestSubmitBadQuery: structural errors are rejected synchronously, not
// deferred to a failed job.
func TestSubmitBadQuery(t *testing.T) {
	g := engineTestGraph(t)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(context.Background(), Query{Kind: "nope"}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unknown kind error %v does not wrap ErrBadQuery", err)
	}
	// Runtime errors surface as failed jobs.
	j, err := eng.Submit(context.Background(), Query{Kind: QueryEstimate, S: -1, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != JobFailed || !errors.Is(st.Err, ErrBadQuery) {
		t.Fatalf("out-of-range estimate job: state %s err %v", st.State, st.Err)
	}
}
