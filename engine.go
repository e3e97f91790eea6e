package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/store"
)

// Engine is the context-first entry point for serving reliability
// maximization and estimation queries over one uncertain graph. Where the
// legacy free functions re-freeze their graph on every call, an Engine is
// built once per dataset and pins a private clone of the graph (callers
// may keep mutating theirs) and its frozen CSR snapshot, shared read-only
// by all queries. Its request-scoped parallel samplers, like every other,
// lease per-worker serial samplers from the process-wide warm pool of
// their estimator kind, so repeated queries reuse scratch memory.
//
// The graph is mutable behind versioned snapshots: Apply commits a batch
// of mutations by building the next frozen epoch and rotating it in
// atomically. Every query pins the snapshot current at canonicalization
// (for jobs: at Submit), so in-flight work is never perturbed by a
// concurrent Apply — it completes on the epoch it started on, bit-identical
// to an engine that was never mutated. See Apply and Mutation.
//
// Every query method takes a context.Context. Cancellation and deadlines
// are cooperative and cheap: the samplers poll ctx between sample blocks
// (never per edge) and the greedy solvers stop at round boundaries, so a
// cancelled query returns within one sample block with an error wrapping
// context.Canceled / context.DeadlineExceeded and — where meaningful — the
// partial result built so far. Uncancelled queries consume exactly the
// randomness the legacy path consumes: for the same Options, Engine.Solve
// and the free Solve return bit-identical Solutions.
//
// An Engine is safe for concurrent use: queries never mutate the snapshot
// they pinned, and each request derives its own deterministic sampler
// state, so a query's result depends only on its request and the epoch it
// ran on. Identical requests on the same epoch always produce identical
// answers — the stateless semantics a serving tier wants (cmd/relmaxd
// builds on this through a Catalog of engines).
type Engine struct {
	// snap is the current epoch: an immutable snapshot (flat CSR, or a
	// delta CSR over the last flat base) swapped wholesale by Apply and
	// the compactor. Readers load it once per query and never see a torn
	// state; old snapshots stay valid for the queries that pinned them.
	snap atomic.Pointer[engineSnapshot]
	// applyMu serializes commits (and Close's terminal transition): a
	// delta layer builds off the snapshot it loaded, so two concurrent
	// commits would otherwise lose one batch.
	applyMu sync.Mutex

	opt Options // defaults template; Sampler/Z/Seed resolved at build

	// id numbers the engine process-wide; job IDs embed it so they stay
	// unique when one server hosts several engines.
	id int64

	// cache is the fingerprint-keyed LRU over successful Results; nil
	// unless WithResultCache configured one.
	cache *resultCache

	// Bounded job queue (Submit): at most maxConcurrent jobs execute at
	// once, at most queueDepth wait for a slot, the rest are rejected with
	// ErrOverloaded.
	maxConcurrent int
	queueDepth    int
	queueDepthSet bool
	jobSem        chan struct{}
	jobSeq        atomic.Int64

	// closed rejects new Submits/Applies after Close; liveJobs tracks
	// non-terminal jobs so Close can cancel them.
	closed   atomic.Bool
	liveMu   sync.Mutex
	liveJobs map[*Job]struct{}

	queuedJobs, runningJobs, inFlightJobs                                 atomic.Int64
	submittedJobs, completedJobs, cancelledJobs, failedJobs, rejectedJobs atomic.Uint64
	applies, mutationsApplied                                             atomic.Uint64
	replicatedApplies, replicatedMutations                                atomic.Uint64

	// Delta-epoch commit machinery (see mutation.go and compact.go): the
	// compact* fields are the fold-the-chain thresholds; compacting
	// single-flights the background compactor. warmN is the cache-warming
	// budget per epoch rotation (0 = disabled), warming its single-flight
	// guard.
	compactDepth int
	compactFrac  float64
	compacting   atomic.Bool
	warmN        int
	warming      atomic.Bool

	deltaCommits, compactions, cacheWarmed atomic.Uint64

	// Anytime-estimate accounting: how many adaptive estimates ran, how
	// many samples they actually drew, and how many their MaxZ budgets
	// would have drawn but the early stop saved.
	anytimeEstimates, anytimeSamplesUsed, anytimeSamplesSaved atomic.Uint64

	// vecCounts tallies the lookups of every snapshot's vector memo.
	vecCounts core.MemoCounts

	// Durable storage; nil for in-memory engines. store and the policy
	// fields are fixed at construction; the pending counters are guarded by
	// applyMu. See durability.go.
	store          store.Store
	storageDir     string
	recoveredStore bool
	ckptBatches    int
	ckptBytes      int64
	pendingBatches int
	pendingBytes   int64

	checkpoints, checkpointErrors atomic.Uint64
}

// engineSnapshot is one frozen graph epoch, and the epoch IS its CSR: a
// flat CSR, or a delta CSR layering committed batches over a flat base
// (see ugraph.CSR.Delta). Estimates read the CSR directly. mat memoizes
// the mutable-Graph form that solvers, compaction and checkpoints need;
// it is built at most once under matOnce, and the snapshot is immutable
// once published. vecs memoizes elimination's reliability vectors on mat,
// built on first use. A new epoch starts with none; a
// compacted twin shares its layered snapshot's memo, since both are over
// the same mat.
type engineSnapshot struct {
	csr *CSR

	matOnce sync.Once
	mat     *Graph
	matErr  error

	vecsOnce sync.Once
	vecs     *core.VectorMemo
}

// newFlatSnapshot pins a flat epoch: g IS the epoch's graph and freezes to
// its CSR, so it seeds the graph memo and the epoch never rebuilds. g must
// not be mutated afterwards.
func newFlatSnapshot(g *Graph) *engineSnapshot {
	s := &engineSnapshot{csr: g.Freeze()}
	s.matOnce.Do(func() { s.mat = g })
	return s
}

// graph returns the mutable-Graph form of the snapshot's epoch. A layered
// epoch rebuilds it lazily and at most once from the CSR's canonical edge
// order — the order checkpoints write and recovery replays, so the rebuild
// freezes to the same rows, probabilities and epoch — and the solver
// paths pay the O(N+M) rebuild only when they actually run on a layered
// epoch. A rebuild error is remembered, and every caller of the snapshot
// gets the same error.
func (s *engineSnapshot) graph() (*Graph, error) {
	s.matOnce.Do(func() {
		g, err := graphFromSnapshot(storeSnapshotOf(s.csr))
		if err != nil {
			s.matErr = fmt.Errorf("repro: rebuilding epoch %d: %w", s.csr.Epoch(), err)
			return
		}
		s.mat = g
	})
	return s.mat, s.matErr
}

// vectors returns the snapshot's memo of elimination vectors on g, which
// must be the snapshot's graph; its lookups count into counts.
func (s *engineSnapshot) vectors(g *Graph, counts *core.MemoCounts) *core.VectorMemo {
	s.vecsOnce.Do(func() { s.vecs = core.NewVectorMemo(g, counts) })
	return s.vecs
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithSamplerKind selects the reliability estimator: "mc", "rss" (default)
// or "mcvec".
func WithSamplerKind(kind string) EngineOption {
	return func(e *Engine) { e.opt.Sampler = kind }
}

// WithSampleSize sets the default sample budget Z per estimate.
func WithSampleSize(z int) EngineOption {
	return func(e *Engine) { e.opt.Z = z }
}

// WithSeed sets the engine's base seed. Every request derives its
// randomness deterministically from the seed in effect (engine default or
// per-request override), so a fixed seed makes the engine's answers
// reproducible across restarts.
func WithSeed(seed int64) EngineOption {
	return func(e *Engine) { e.opt.Seed = seed }
}

// WithWorkers sizes the sampling worker pool: N >= 1 runs N workers, and
// N <= 0 uses GOMAXPROCS. Results are bit-identical at every worker count
// for a fixed seed: the sampler's fixed, seeded shards fix the randomness.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.opt.Workers = n }
}

// WithSolverDefaults replaces the engine's whole Options template (budget
// K, ζ, elimination width R, path count L, hop bound H, sampler config,
// workers, ...). Later options still override individual fields.
func WithSolverDefaults(opt Options) EngineOption {
	return func(e *Engine) { e.opt = opt }
}

// WithResultCache enables the fingerprint-keyed LRU result cache with room
// for n successful query results. Repeated identical queries (same
// canonical fingerprint — see Query.Key) then return the cached,
// bit-identical Result without recomputing; hits are visible in job
// statuses and Stats. n <= 0 (the default) disables caching.
func WithResultCache(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.cache = newResultCache(n)
		} else {
			e.cache = nil
		}
	}
}

// WithMaxConcurrent bounds how many submitted jobs execute simultaneously
// (the worker-slot count of the job queue). n <= 0 selects GOMAXPROCS.
// Synchronous Engine calls (Solve, Run, ...) are not throttled — only
// jobs; a serving tier routes everything through Submit to get one global
// bound.
func WithMaxConcurrent(n int) EngineOption {
	return func(e *Engine) { e.maxConcurrent = n }
}

// WithQueueDepth bounds how many submitted jobs may wait beyond the
// running ones: total admission capacity is maxConcurrent + queueDepth
// jobs in flight, and submissions beyond it fail fast with ErrOverloaded —
// the load-shedding primitive. n == 0 disables queueing entirely (only
// the running slots admit — strict shedding); n < 0 selects the default
// of 64.
func WithQueueDepth(n int) EngineOption {
	return func(e *Engine) { e.queueDepth, e.queueDepthSet = n, true }
}

// NewEngine builds a query engine over g: the graph is cloned and frozen
// once and the sampler kind validated. On error the returned engine is nil.
func NewEngine(g *Graph, opts ...EngineOption) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("repro: NewEngine: nil graph: %w", ErrBadQuery)
	}
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	// Resolve the sampler-facing defaults now (mirroring the solver
	// defaults) so Estimate and EstimateMany see the same configuration a
	// Solve would.
	if e.opt.Sampler == "" {
		e.opt.Sampler = "rss"
	}
	if e.opt.Z <= 0 {
		e.opt.Z = 500
	}
	if e.opt.Seed == 0 {
		e.opt.Seed = 1
	}
	if err := sampling.CheckKind(e.opt.Sampler); err != nil {
		return nil, fmt.Errorf("repro: NewEngine: %w", err)
	}
	if e.maxConcurrent <= 0 {
		e.maxConcurrent = runtime.GOMAXPROCS(0)
	}
	if !e.queueDepthSet || e.queueDepth < 0 {
		e.queueDepth = 64
	}
	e.jobSem = make(chan struct{}, e.maxConcurrent)
	e.id = engineSeq.Add(1)
	e.liveJobs = make(map[*Job]struct{})
	if e.compactDepth <= 0 {
		e.compactDepth = defaultCompactDepth
	}
	if e.compactFrac <= 0 {
		e.compactFrac = defaultCompactFraction
	}
	gc := g.Clone()
	e.snap.Store(newFlatSnapshot(gc))
	if e.cache != nil {
		e.cache.setEpoch(gc.Version())
	}
	if err := e.initStorage(gc.Freeze()); err != nil {
		if e.store != nil {
			e.store.Close()
		}
		return nil, fmt.Errorf("repro: NewEngine: %w", err)
	}
	return e, nil
}

// Snapshot returns the engine's current immutable CSR snapshot; it is safe
// for unrestricted concurrent reads and never changes once returned. Apply
// rotates the engine to a new snapshot — callers that must correlate
// several reads use one Snapshot value, not repeated calls.
func (e *Engine) Snapshot() *CSR { return e.snap.Load().csr }

// Epoch returns the engine's current graph epoch: the version stamp of the
// snapshot queries pin. It changes exactly when Apply commits a batch.
func (e *Engine) Epoch() uint64 { return e.snap.Load().csr.Epoch() }

// options resolves the effective Options for one request: nil uses the
// engine defaults; a non-nil override is taken as-is except that zero
// Sampler/Z/Seed/Workers inherit the engine configuration (so overriding
// K or Zeta does not silently change the estimator).
func (e *Engine) options(req *Options) Options {
	opt := e.opt
	if req != nil {
		opt = *req
		if opt.Sampler == "" {
			opt.Sampler = e.opt.Sampler
		}
		if opt.Z <= 0 {
			opt.Z = e.opt.Z
		}
		if opt.Seed == 0 {
			opt.Seed = e.opt.Seed
		}
		if opt.Workers == 0 {
			opt.Workers = e.opt.Workers
		}
	}
	return opt
}

// Request is one single-source-target Problem 1 query served by
// Engine.Solve.
type Request struct {
	// S and T are the query endpoints.
	S, T NodeID
	// Method selects the solver; empty uses MethodBE.
	Method Method
	// Options overrides the engine's solver defaults for this request;
	// nil uses them unchanged. Zero Sampler/Z/Seed/Workers fields inherit
	// the engine configuration.
	Options *Options
	// Progress, when non-nil, receives per-round solver progress
	// (candidates eliminated, paths extracted, batches evaluated). It
	// runs inline on the solving goroutine.
	Progress ProgressFunc
}

// MultiRequest is one multiple-source-target Problem 4 query served by
// Engine.SolveMulti.
type MultiRequest struct {
	Sources, Targets []NodeID
	// Aggregate selects the objective; empty uses AggAvg.
	Aggregate Aggregate
	// Method selects the solver; empty uses MethodBE.
	// Supported: MethodBE, MethodHillClimbing, MethodEigen.
	Method   Method
	Options  *Options
	Progress ProgressFunc
}

// BudgetRequest is one total-probability-budget query (the §9 extension)
// served by Engine.SolveTotalBudget.
type BudgetRequest struct {
	S, T NodeID
	// Budget is the total probability mass to allocate across new edges.
	Budget   float64
	Options  *Options
	Progress ProgressFunc
}

// Solve answers a Problem 1 query under ctx — a thin wrapper building a
// QuerySolve Query and dispatching through Run. On cancellation or
// deadline expiry it returns the partial Solution built so far (chosen
// edges, elimination stats; no held-out evaluation) and an error wrapping
// ctx.Err(); on success the Solution is bit-identical to the legacy free
// Solve at the same effective Options.
func (e *Engine) Solve(ctx context.Context, req Request) (Solution, error) {
	res, err := e.Run(ctx, Query{
		Kind: QuerySolve, S: req.S, T: req.T,
		Method: req.Method, Options: req.Options, Progress: req.Progress,
	})
	return res.Solution, err
}

// SolveMulti answers a Problem 4 query under ctx via the QueryMulti
// dispatch; see Solve for the cancellation contract.
func (e *Engine) SolveMulti(ctx context.Context, req MultiRequest) (MultiSolution, error) {
	res, err := e.Run(ctx, Query{
		Kind: QueryMulti, Sources: req.Sources, Targets: req.Targets,
		Aggregate: req.Aggregate, Method: req.Method,
		Options: req.Options, Progress: req.Progress,
	})
	return res.Multi, err
}

// SolveTotalBudget answers a §9 total-budget query under ctx via the
// QueryTotalBudget dispatch; see Solve for the cancellation contract.
func (e *Engine) SolveTotalBudget(ctx context.Context, req BudgetRequest) (TotalBudgetSolution, error) {
	res, err := e.Run(ctx, Query{
		Kind: QueryTotalBudget, S: req.S, T: req.T, Budget: req.Budget,
		Options: req.Options, Progress: req.Progress,
	})
	return res.TotalBudget, err
}

// checkNodes rejects a node outside the snapshot's graph.
func (s *engineSnapshot) checkNodes(vs ...NodeID) error {
	for _, v := range vs {
		if v < 0 || int(v) >= s.csr.N() {
			return fmt.Errorf("repro: node %d out of range [0,%d): %w", v, s.csr.N(), ErrBadQuery)
		}
	}
	return nil
}

// checkPair rejects a solve's source or target outside the snapshot's
// graph, and a source equal to its target.
func (s *engineSnapshot) checkPair(src, dst NodeID) error {
	if err := s.checkNodes(src, dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("repro: source equals target (%d): %w", src, ErrBadQuery)
	}
	return nil
}

// Estimate returns the s-t reliability on the pinned snapshot under ctx
// via the QueryEstimate dispatch. Cancellation aborts within one sample
// block and returns an error wrapping ctx.Err().
func (e *Engine) Estimate(ctx context.Context, s, t NodeID) (float64, error) {
	res, err := e.Run(ctx, Query{Kind: QueryEstimate, S: s, T: t})
	return res.Reliability, err
}

// EstimateMany returns the reliability of every (S, T) query in one
// batched, deterministic call via the QueryEstimateMany dispatch: the
// (query, shard) product fans out over the worker pool, bit-identical at
// every worker count. On cancellation it returns an error wrapping
// ctx.Err() and no results (out-of-order execution leaves no meaningful
// completed prefix).
func (e *Engine) EstimateMany(ctx context.Context, queries []PairQuery) ([]float64, error) {
	res, err := e.Run(ctx, Query{Kind: QueryEstimateMany, Pairs: queries})
	return res.Reliabilities, err
}
