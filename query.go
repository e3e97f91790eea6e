package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"

	"repro/internal/anytime"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sampling"
)

// QueryKind names one of the engine's five query families. Every serving
// surface — Engine.Run, Engine.Submit, the five typed wrapper methods and
// cmd/relmaxd's /v2/jobs endpoint — dispatches on the same kinds.
type QueryKind string

// The query kinds served by an Engine.
const (
	// QuerySolve is a single-source-target Problem 1 query (Engine.Solve).
	QuerySolve QueryKind = "solve"
	// QueryMulti is a multiple-source-target Problem 4 query
	// (Engine.SolveMulti).
	QueryMulti QueryKind = "multi"
	// QueryTotalBudget is a §9 total-probability-budget query
	// (Engine.SolveTotalBudget).
	QueryTotalBudget QueryKind = "total-budget"
	// QueryEstimate is one s-t reliability estimate (Engine.Estimate).
	QueryEstimate QueryKind = "estimate"
	// QueryEstimateMany is a batched reliability estimate
	// (Engine.EstimateMany).
	QueryEstimateMany QueryKind = "estimate-many"
)

// Query is the unified typed representation of one engine query: a kind
// plus the union of per-kind parameters. The five typed Engine methods are
// thin wrappers that build a Query and call Engine.Run; Engine.Submit
// accepts the same representation for asynchronous jobs.
//
// Fields irrelevant to a Kind are ignored (and stripped by
// Engine.Canonicalize, so they never split the result cache). Options
// follows the same override semantics as Request.Options: nil uses the
// engine defaults, zero Sampler/Z/Seed/Workers fields inherit the engine
// configuration.
type Query struct {
	// Kind selects the query family.
	Kind QueryKind
	// S and T are the endpoints for solve, total-budget and estimate.
	S, T NodeID
	// Sources and Targets are the multi-query node sets.
	Sources, Targets []NodeID
	// Aggregate is the multi-query objective; empty means AggAvg.
	Aggregate Aggregate
	// Budget is the total probability mass for total-budget queries.
	Budget float64
	// Pairs are the estimate-many queries.
	Pairs []PairQuery
	// Method selects the solver for solve and multi; empty uses MethodBE.
	Method Method
	// Options overrides the engine's solver defaults; nil uses them
	// unchanged.
	Options *Options
	// Progress, when non-nil, receives per-round solver progress. It is
	// never part of the fingerprint; note that a cache hit skips the
	// computation entirely, so no progress events fire.
	Progress ProgressFunc

	// snap and epoch pin the graph snapshot the query runs on, set by
	// Canonicalize. The epoch is part of the fingerprint (Key), so the
	// same logical query resolves to distinct cache entries before and
	// after a mutation; the snapshot pointer is what lets a job submitted
	// before Engine.Apply keep computing on the graph it was submitted
	// against.
	snap  *engineSnapshot
	epoch uint64
}

// Epoch returns the graph epoch a canonicalized query is pinned to (zero
// on queries that have not passed through Engine.Canonicalize).
func (q Query) Epoch() uint64 { return q.epoch }

// Result is the union of the five query results; Kind tells which field is
// populated.
type Result struct {
	Kind QueryKind
	// Solution is the solve result.
	Solution Solution
	// Multi is the multi result.
	Multi MultiSolution
	// TotalBudget is the total-budget result.
	TotalBudget TotalBudgetSolution
	// Reliability is the estimate result.
	Reliability float64
	// Reliabilities is the estimate-many result, index-aligned with Pairs.
	Reliabilities []float64
	// Anytime carries the confidence interval and stopping detail of an
	// anytime estimate (Options.Precision > 0); nil on fixed-budget
	// estimates and non-estimate kinds.
	Anytime *AnytimeEstimate
	// AnytimeMany is the per-pair anytime detail for estimate-many queries
	// run with Options.Precision > 0, index-aligned with Pairs.
	AnytimeMany []AnytimeEstimate
}

// AnytimeEstimate is the result detail of one anytime reliability
// estimate: the point estimate with its confidence interval, how many
// samples the adaptive controller actually drew, and why it stopped
// (StopPrecision, StopBudget or StopDeadline — see internal/anytime).
type AnytimeEstimate struct {
	// Point is the reliability estimate; Lo and Hi bound its confidence
	// interval (95%, Wilson/Hoeffding whichever is tighter).
	Point, Lo, Hi float64
	// SamplesUsed is the number of possible worlds actually drawn — at
	// most MaxZ, and less whenever the interval reached Precision early.
	SamplesUsed int
	// StopReason records which stopping rule fired first.
	StopReason string
	// Precision is the interval half-width the estimate was computed for.
	// On a cache upgrade (a tighter cached answer serving a looser
	// request) it reports the tighter precision actually served.
	Precision float64
	// MaxZ is the sample budget cap the controller ran under.
	MaxZ int
}

// Canonicalize resolves q against the engine configuration into its
// canonical form: Method and Aggregate defaults applied, Options fully
// resolved (engine inheritance plus the paper defaults) and stripped to
// the fields that can affect the answer of this Kind, node sets copied,
// and the engine's current graph snapshot pinned (Epoch). Two queries
// that would run the identical computation on the same epoch canonicalize
// to Queries with equal Key() fingerprints — the property the result
// cache and job deduplication rely on; a mutation (Engine.Apply) advances
// the epoch, so post-mutation queries fingerprint differently and never
// hit pre-mutation cache entries. It also rejects what no job could run:
// an unknown sampler kind (ErrUnknownSampler), solve method or multi
// method (ErrUnknownMethod); a multi aggregate, an invalid probability, a
// node outside the pinned snapshot, a solve or total-budget source equal
// to its target, or an empty multi source or target set (ErrBadQuery);
// and a total budget that is not finite and positive (ErrBudget).
// Engine.Run and Engine.Submit canonicalize internally, so those errors
// come back synchronously; callers only need this to compute fingerprints
// themselves.
func (e *Engine) Canonicalize(q Query) (Query, error) {
	snap := e.snap.Load()
	out := Query{Kind: q.Kind, Progress: q.Progress, snap: snap, epoch: snap.csr.Epoch()}
	opt := e.options(q.Options)
	opt.Vectors = nil
	opt.Progress = nil
	if opt.Candidates != nil {
		// Copy like Sources/Targets/Pairs below: a queued job must not see
		// later caller mutations of the slice its fingerprint was hashed
		// over. Nil-ness is semantic (nil = run elimination, empty = an
		// explicit empty candidate set), so an empty slice stays non-nil.
		opt.Candidates = append(make([]Edge, 0, len(opt.Candidates)), opt.Candidates...)
	}
	switch q.Kind {
	case QuerySolve, QueryMulti, QueryTotalBudget:
		if err := opt.Validate(snap.csr.N()); err != nil {
			return Query{}, err
		}
	}
	switch q.Kind {
	case QuerySolve:
		if err := snap.checkPair(q.S, q.T); err != nil {
			return Query{}, err
		}
		out.S, out.T = q.S, q.T
		out.Method = q.Method
		if out.Method == "" {
			out.Method = MethodBE
		}
		if !slices.Contains(core.Methods(), out.Method) {
			return Query{}, fmt.Errorf("repro: method %q: %w", out.Method, ErrUnknownMethod)
		}
		opt = opt.Normalized()
	case QueryMulti:
		if len(q.Sources) == 0 || len(q.Targets) == 0 {
			return Query{}, fmt.Errorf("repro: empty source or target set: %w", ErrBadQuery)
		}
		if err := snap.checkNodes(q.Sources...); err != nil {
			return Query{}, err
		}
		if err := snap.checkNodes(q.Targets...); err != nil {
			return Query{}, err
		}
		out.Sources = append([]NodeID(nil), q.Sources...)
		out.Targets = append([]NodeID(nil), q.Targets...)
		out.Aggregate = q.Aggregate
		if out.Aggregate == "" {
			out.Aggregate = AggAvg
		}
		out.Method = q.Method
		if out.Method == "" {
			out.Method = MethodBE
		}
		if !slices.Contains(core.MultiMethods(), out.Method) {
			return Query{}, fmt.Errorf("repro: method %q not supported for multi-source-target queries: %w", out.Method, ErrUnknownMethod)
		}
		if !slices.Contains([]Aggregate{AggAvg, AggMin, AggMax}, out.Aggregate) {
			return Query{}, fmt.Errorf("repro: unknown aggregate %q: %w", out.Aggregate, ErrBadQuery)
		}
		opt = opt.Normalized()
	case QueryTotalBudget:
		if err := core.CheckBudget(q.Budget); err != nil {
			return Query{}, err
		}
		if err := snap.checkPair(q.S, q.T); err != nil {
			return Query{}, err
		}
		out.S, out.T, out.Budget = q.S, q.T, q.Budget
		opt = opt.Normalized()
	case QueryEstimate, QueryEstimateMany:
		if q.Kind == QueryEstimate {
			if err := snap.checkNodes(q.S, q.T); err != nil {
				return Query{}, err
			}
			out.S, out.T = q.S, q.T
		} else {
			for _, p := range q.Pairs {
				if err := snap.checkNodes(p.S, p.T); err != nil {
					return Query{}, err
				}
			}
			out.Pairs = append([]PairQuery(nil), q.Pairs...)
		}
		// Estimation depends only on the sampler configuration; stripping
		// the solver fields keeps the fingerprint canonical. An anytime
		// request (Precision > 0) replaces the fixed budget Z with the
		// adaptive (Precision, MaxZ) pair; a fixed-budget request strips
		// any stray Precision/MaxZ so they cannot split fingerprints.
		opt = Options{
			Sampler: opt.Sampler, Z: opt.Z, Seed: opt.Seed, Workers: opt.Workers,
			Precision: opt.Precision, MaxZ: opt.MaxZ,
		}
		if opt.Precision > 0 {
			opt.Z = 0
			if opt.MaxZ <= 0 {
				opt.MaxZ = anytime.DefaultMaxZ
			}
		} else {
			opt.Precision, opt.MaxZ = 0, 0
		}
	default:
		return Query{}, fmt.Errorf("repro: unknown query kind %q: %w", q.Kind, ErrBadQuery)
	}
	if err := sampling.CheckKind(opt.Sampler); err != nil {
		return Query{}, fmt.Errorf("repro: %w", err)
	}
	out.Options = &opt
	return out, nil
}

// Key returns the query's deterministic fingerprint: a hex-encoded
// SHA-256 over a canonical binary encoding of every result-affecting
// field, including the pinned graph epoch — the same query before and
// after a mutation is two different computations and fingerprints as
// such. Progress callbacks, the scratch pool and the worker count are
// excluded (results are bit-identical at every Workers value, so w=0 and
// w=8 fingerprint identically). Call it on a canonicalized Query for the
// canonical fingerprint; the engine's cache and jobs do so automatically.
func (q Query) Key() string {
	h := sha256.New()
	writeInts(h, int64(q.epoch))
	writeString(h, string(q.Kind))
	writeString(h, string(q.Method))
	writeString(h, string(q.Aggregate))
	writeInts(h, int64(q.S), int64(q.T))
	writeInts(h, int64(math.Float64bits(q.Budget)))
	writeInts(h, int64(len(q.Sources)))
	for _, v := range q.Sources {
		writeInts(h, int64(v))
	}
	writeInts(h, int64(len(q.Targets)))
	for _, v := range q.Targets {
		writeInts(h, int64(v))
	}
	writeInts(h, int64(len(q.Pairs)))
	for _, p := range q.Pairs {
		writeInts(h, int64(p.S), int64(p.T))
	}
	if q.Options == nil {
		writeInts(h, 0)
	} else {
		o := *q.Options
		noElim := int64(0)
		if o.NoElimination {
			noElim = 1
		}
		writeInts(h, 1,
			int64(o.K), int64(math.Float64bits(o.Zeta)), int64(o.R), int64(o.L), int64(o.H),
			int64(o.Z), o.Seed, noElim, int64(o.MaxExactCombos),
			int64(math.Float64bits(o.K1Ratio)))
		writeString(h, o.Sampler)
		// Anytime estimates fingerprint on the (anytime?, MaxZ) pair but
		// deliberately NOT on Precision: the cache upgrades across
		// precisions (a tighter stored answer may serve a looser request —
		// see resultCache.lookup), which requires requests differing only
		// in Precision to share a fingerprint.
		anytimeClass := int64(0)
		if o.Precision > 0 {
			anytimeClass = 1
		}
		writeInts(h, anytimeClass, int64(o.MaxZ))
		// Nil and empty candidate sets are different queries (nil = run
		// elimination, empty = explicitly no candidates), so the nil-ness
		// is part of the fingerprint, not just the length.
		hasCands := int64(0)
		if o.Candidates != nil {
			hasCands = 1
		}
		writeInts(h, hasCands, int64(len(o.Candidates)))
		for _, e := range o.Candidates {
			writeInts(h, int64(e.U), int64(e.V), int64(math.Float64bits(e.P)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeString(h hash.Hash, s string) {
	writeInts(h, int64(len(s)))
	h.Write([]byte(s))
}

func writeInts(h hash.Hash, vals ...int64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// Run answers one query of any kind under ctx — the single dispatch every
// typed Engine method is a wrapper over. The cancellation contract is the
// kind's own (see Solve, Estimate, ...): partial results where meaningful,
// an error wrapping ctx.Err(). With a result cache configured
// (WithResultCache), a successful result is stored under the query's
// canonical fingerprint and an identical later query returns the cached,
// bit-identical Result without recomputing (and without progress events);
// errors and partial results are never cached.
func (e *Engine) Run(ctx context.Context, q Query) (Result, error) {
	cq, err := e.Canonicalize(q)
	if err != nil {
		return Result{Kind: q.Kind}, err
	}
	res, _, err := e.runCanonical(ctx, cq)
	return res, err
}

// runCanonical serves an already-canonical query, consulting and filling
// the result cache. The bool reports whether the result came from cache.
// Without a configured cache the fingerprint is never computed — the
// synchronous path of a cache-less engine (the default) pays no hashing.
func (e *Engine) runCanonical(ctx context.Context, cq Query) (Result, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var key string
	if e.cache != nil {
		key = cq.Key()
		if res, ok := e.cache.get(key, cq.precision()); ok {
			return res, true, nil
		}
	}
	res, err := e.execute(ctx, cq)
	if err == nil && e.cache != nil {
		e.cache.put(key, cq, res)
	}
	return res, false, err
}

// precision returns the canonicalized query's requested interval
// half-width (zero for fixed-budget queries) — the value the result cache
// keys entry compatibility on.
func (q Query) precision() float64 {
	if q.Options == nil {
		return 0
	}
	return q.Options.Precision
}

// execute dispatches a canonical query to the solver or estimator layers,
// running entirely on the snapshot the query pinned at canonicalization.
func (e *Engine) execute(ctx context.Context, q Query) (Result, error) {
	res := Result{Kind: q.Kind}
	snap := q.snap
	opt := *q.Options
	opt.Progress = q.Progress
	switch q.Kind {
	case QuerySolve:
		g, err := snap.graph()
		if err != nil {
			return res, err
		}
		opt.Vectors = snap.vectors(g, &e.vecCounts)
		sol, err := core.Solve(ctx, g, q.S, q.T, q.Method, opt)
		res.Solution = sol
		if err == nil && sol.PathCount == 0 && (q.Method == MethodIP || q.Method == MethodBE) {
			// The legacy free Solve returns an empty zero-gain Solution here;
			// the Engine surface is stricter so serving layers can tell
			// "nothing to improve" apart from a real answer.
			return res, fmt.Errorf("repro: method %q extracted no s-t path on the augmented graph: %w", q.Method, ErrNoPath)
		}
		return res, err
	case QueryMulti:
		g, err := snap.graph()
		if err != nil {
			return res, err
		}
		sol, err := core.SolveMulti(ctx, g, q.Sources, q.Targets, q.Aggregate, q.Method, opt)
		res.Multi = sol
		return res, err
	case QueryTotalBudget:
		g, err := snap.graph()
		if err != nil {
			return res, err
		}
		opt.Vectors = snap.vectors(g, &e.vecCounts)
		sol, err := core.SolveTotalBudget(ctx, g, q.S, q.T, q.Budget, opt)
		res.TotalBudget = sol
		return res, err
	case QueryEstimate:
		if opt.Precision > 0 {
			est, err := e.anytimeEstimate(ctx, snap, opt, q.S, q.T, opt.Seed, opt.Progress)
			if err != nil {
				return res, err
			}
			res.Reliability = est.Point
			res.Anytime = est
			return res, nil
		}
		smp, err := estimatorFor(ctx, opt)
		if err != nil {
			return res, err
		}
		rel := smp.ReliabilityCSR(snap.csr, q.S, q.T)
		if cerr := ctx.Err(); cerr != nil {
			return res, fmt.Errorf("repro: estimate interrupted: %w", cerr)
		}
		res.Reliability = rel
		return res, nil
	case QueryEstimateMany:
		if opt.Precision > 0 {
			out, many, err := e.anytimeEstimateMany(ctx, snap, opt, q.Pairs)
			res.Reliabilities = out
			res.AnytimeMany = many
			return res, err
		}
		out, err := e.estimateMany(ctx, snap, opt, q.Pairs)
		res.Reliabilities = out
		return res, err
	}
	return res, fmt.Errorf("repro: unknown query kind %q: %w", q.Kind, ErrBadQuery)
}

// estimateMany is the estimate-many execution: one batched parallel
// sampler call, each query's full budget sharded across the pool.
func (e *Engine) estimateMany(ctx context.Context, snap *engineSnapshot, opt Options, pairs []PairQuery) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	smp, err := estimatorFor(ctx, opt)
	if err != nil {
		return nil, err
	}
	out := smp.EstimateManyCSR(snap.csr, pairs)
	if cerr := ctx.Err(); cerr != nil {
		// Out-of-order scheduling means there is no meaningful completed
		// prefix; discard the partial merge.
		return nil, fmt.Errorf("repro: estimate batch interrupted: %w", cerr)
	}
	return out, nil
}

// estimatorFor builds the request-scoped reliability estimator for the
// resolved options: a parallel sampler whose workers lease from the kind's
// process-wide warm pool (see sampling.NewParallel). Each call starts from
// the resolved seed, so identical estimation requests return identical
// values regardless of what ran before.
func estimatorFor(ctx context.Context, opt Options) (*sampling.ParallelSampler, error) {
	smp, err := sampling.NewParallel(opt.Sampler, opt.Z, opt.Seed, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	smp.SetContext(ctx)
	return smp, nil
}

// anytimeEstimate runs the adaptive block-wise controller for one s-t
// estimate: samples are drawn in 64-aligned blocks until the confidence
// interval is at most opt.Precision wide (half-width), the MaxZ budget is
// spent, or the deadline fires — whichever comes first. Progress events
// (StageEstimate) stream the narrowing interval.
func (e *Engine) anytimeEstimate(ctx context.Context, snap *engineSnapshot, opt Options, s, t NodeID, seed int64, progress ProgressFunc) (*AnytimeEstimate, error) {
	cfg := anytime.Config{
		Sampler:   opt.Sampler,
		Precision: opt.Precision,
		MaxZ:      opt.MaxZ,
		Seed:      seed,
		Workers:   opt.Workers,
	}
	if progress != nil {
		cfg.Progress = func(cur anytime.Estimate) {
			progress(ProgressEvent{
				Stage: StageEstimate,
				Lo:    cur.Lo, Hi: cur.Hi,
				Samples: cur.SamplesUsed,
			})
		}
	}
	est, err := anytime.Run(ctx, snap.csr, s, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("repro: estimate interrupted: %w", err)
	}
	e.anytimeEstimates.Add(1)
	e.anytimeSamplesUsed.Add(uint64(est.SamplesUsed))
	if saved := opt.MaxZ - est.SamplesUsed; saved > 0 {
		e.anytimeSamplesSaved.Add(uint64(saved))
	}
	return &AnytimeEstimate{
		Point: est.Point, Lo: est.Lo, Hi: est.Hi,
		SamplesUsed: est.SamplesUsed,
		StopReason:  est.StopReason,
		Precision:   opt.Precision,
		MaxZ:        opt.MaxZ,
	}, nil
}

// anytimeEstimateMany runs the adaptive controller once per pair,
// sequentially; pair i derives its stream from SplitSeed(seed, i), so each
// pair's answer is independent of the batch composition (the same pair
// alone or in any batch position i gets the same stream).
func (e *Engine) anytimeEstimateMany(ctx context.Context, snap *engineSnapshot, opt Options, pairs []PairQuery) ([]float64, []AnytimeEstimate, error) {
	if len(pairs) == 0 {
		return nil, nil, nil
	}
	out := make([]float64, len(pairs))
	many := make([]AnytimeEstimate, len(pairs))
	for i, p := range pairs {
		est, err := e.anytimeEstimate(ctx, snap, opt, p.S, p.T, rng.SplitSeed(opt.Seed, int64(i)), opt.Progress)
		if err != nil {
			return nil, nil, err
		}
		out[i] = est.Point
		many[i] = *est
	}
	return out, many, nil
}
