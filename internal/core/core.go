// Package core implements the paper's contribution: solvers for the
// budgeted reliability maximization problem (Problem 1), its restricted
// most-reliable-path version (Problem 2), the budgeted path selection
// subproblem (Problem 3) and the multiple-source-target generalization
// (Problem 4), together with the baseline methods of §3 (individual top-k,
// hill climbing, centrality-based, eigenvalue-based) and the exact
// exhaustive-search competitor of Table 11.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/anytime"
	"repro/internal/candidates"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// Method selects a solver for Problem 1.
type Method string

// Problem 1 solvers (§3 baselines, §4 restricted solver, §5 proposed).
const (
	// MethodIndividualTopK ranks candidate edges by individual
	// reliability gain (§3.1).
	MethodIndividualTopK Method = "topk"
	// MethodHillClimbing greedily adds the max-marginal-gain edge
	// (Algorithm 1, §3.2).
	MethodHillClimbing Method = "hc"
	// MethodDegree connects high degree-centrality endpoints (§3.3).
	MethodDegree Method = "degree"
	// MethodBetweenness connects high betweenness-centrality endpoints
	// (§3.3).
	MethodBetweenness Method = "betweenness"
	// MethodEigen ranks candidate edges by eigen-score (§3.4,
	// Algorithm 2).
	MethodEigen Method = "eigen"
	// MethodMRP solves the restricted Problem 2 exactly (Algorithm 3)
	// and uses its edges for Problem 1.
	MethodMRP Method = "mrp"
	// MethodIP is individual path-based edge selection (Algorithm 5).
	MethodIP Method = "ip"
	// MethodBE is path batches-based edge selection (Algorithms 5+6),
	// the paper's flagship solver.
	MethodBE Method = "be"
	// MethodExact exhaustively enumerates candidate combinations
	// (Table 11's ES competitor; feasible only on small inputs).
	MethodExact Method = "exact"
)

// Methods lists every Problem 1 solver in presentation order.
func Methods() []Method {
	return []Method{
		MethodIndividualTopK, MethodHillClimbing, MethodDegree,
		MethodBetweenness, MethodEigen, MethodMRP, MethodIP, MethodBE, MethodExact,
	}
}

// Options configures a Problem 1/4 query. Zero values select the paper's
// defaults (§8.1 parameters setup).
type Options struct {
	// K is the budget on new edges (default 10).
	K int
	// Zeta is the probability assigned to new edges (default 0.5).
	Zeta float64
	// R is the number of candidate nodes per side for search space
	// elimination (default 100).
	R int
	// L is the number of most reliable paths extracted (default 30).
	L int
	// H is the hop-distance constraint for new edges; 0 (or any negative
	// value, normalized to 0) disables it.
	H int
	// Z is the sample size for reliability estimation (default 500).
	Z int
	// Sampler chooses the estimator: "mc", "rss" or "mcvec" (the
	// word-parallel 64-lane MC; default "rss"). Search-space elimination
	// always uses "mcvec" (see elimSampler).
	Sampler string
	// Precision, when > 0, turns reliability estimation into an anytime
	// query: sampling stops as soon as the confidence interval half-width
	// reaches Precision, or at MaxZ samples, whichever first. Estimation
	// queries only; the Problem 1/4 solvers ignore it.
	Precision float64
	// MaxZ caps the samples an anytime estimate may draw (default 65536).
	// Ignored unless Precision > 0.
	MaxZ int
	// Seed drives all randomness (default 1).
	Seed int64
	// NoElimination skips Algorithm 4 and uses every missing edge
	// (within H hops) as a candidate — the Table 4 configuration.
	NoElimination bool
	// Candidates, when non-nil, overrides candidate generation entirely;
	// each edge carries its own probability (Table 16's per-edge
	// probability experiment).
	Candidates []ugraph.Edge
	// MaxExactCombos caps the combination count MethodExact will
	// enumerate (default 2e6).
	MaxExactCombos int
	// K1Ratio is the per-round budget fraction k1/k for the Min/Max
	// aggregate solvers of §6 (default 0.1).
	K1Ratio float64
	// Workers sizes the reliability-estimation worker pool; <= 0 uses
	// GOMAXPROCS. Every estimate runs on a sampling.ParallelSampler, whose
	// fixed, seeded shards — not the worker count — fix the randomness, so
	// results are bit-identical at every Workers value for a fixed Seed.
	Workers int
	// Vectors, when non-nil, memoises search-space elimination's From(s)
	// and To(t) vectors for Solve and SolveTotalBudget on the graph it was
	// built for; solves on any other graph ignore it. A long-lived Engine
	// sets one per epoch so solves sharing an endpoint sample its vector
	// once; it never affects results.
	Vectors *VectorMemo
	// Progress, when non-nil, receives solver progress notifications
	// (stage boundaries and per-round selection progress). Callbacks run
	// inline on the solving goroutine and cannot perturb results.
	Progress ProgressFunc
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Zeta <= 0 {
		o.Zeta = 0.5
	}
	if o.R <= 0 {
		o.R = 100
	}
	if o.L <= 0 {
		o.L = 30
	}
	if o.H < 0 {
		// Every h <= 0 disables the hop constraint; one value keeps them
		// from fingerprinting apart.
		o.H = 0
	}
	if o.Z <= 0 {
		o.Z = 500
	}
	if o.Sampler == "" {
		o.Sampler = "rss"
	}
	if o.Precision > 0 && o.MaxZ <= 0 {
		o.MaxZ = anytime.DefaultMaxZ
	}
	if o.Precision <= 0 {
		// Precision off: MaxZ is meaningless, zero it so a stray value
		// cannot differentiate otherwise-identical fixed-budget queries.
		o.Precision, o.MaxZ = 0, 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxExactCombos <= 0 {
		o.MaxExactCombos = 2_000_000
	}
	if o.K1Ratio <= 0 || o.K1Ratio > 1 {
		o.K1Ratio = 0.1
	}
	return o
}

// Normalized returns o with the paper defaults filled in — the resolved
// form a solver actually runs under. It is idempotent; the Engine's query
// canonicalization uses it so that a zero field and its explicit default
// fingerprint identically.
func (o Options) Normalized() Options { return o.withDefaults() }

// Validate reports ErrBadQuery for probabilities and candidate endpoints
// the solvers cannot add to G+ on a graph of n nodes: a Zeta or candidate P
// that is NaN or above 1, or a candidate endpoint outside [0, n). A
// non-positive Zeta or P is valid; it selects the default.
func (o Options) Validate(n int) error {
	if o.Zeta > 1 || math.IsNaN(o.Zeta) {
		return fmt.Errorf("core: zeta %v outside [0,1]: %w", o.Zeta, ErrBadQuery)
	}
	for _, e := range o.Candidates {
		if e.P > 1 || math.IsNaN(e.P) {
			return fmt.Errorf("core: candidate (%d,%d) probability %v outside [0,1]: %w", e.U, e.V, e.P, ErrBadQuery)
		}
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return fmt.Errorf("core: candidate (%d,%d) out of range [0,%d): %w", e.U, e.V, n, ErrBadQuery)
		}
	}
	return nil
}

// NewSampler builds the reliability estimator configured by opt, with a
// decorrelated stream index so different pipeline stages use independent
// randomness, bound to ctx for block-granular cooperative cancellation.
// The estimator is a sampling.ParallelSampler with Workers workers, which
// lease their serial samplers from the kind's process-wide warm pool.
func (o Options) NewSampler(ctx context.Context, stream int64) (sampling.BatchSampler, error) {
	smp, err := o.parallelSampler(ctx, o.Sampler, stream)
	if err != nil {
		return nil, err // a nil interface, not a typed nil
	}
	return smp, nil
}

// parallelSampler is NewSampler for an estimator of the given kind.
func (o Options) parallelSampler(ctx context.Context, kind string, stream int64) (*sampling.ParallelSampler, error) {
	smp, err := sampling.NewParallel(kind, o.Z, rng.Split(o.Seed, stream).Int63(), o.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	smp.SetContext(ctx)
	return smp, nil
}

// elimSampler builds the estimator used by search-space elimination:
// "mcvec", whatever Sampler is, because elimination only needs full
// single-source From/To vectors, where the word-parallel sampler is
// markedly faster at equal budget. It draws on its own decorrelated
// stream (7 — distinct from every pipeline's selection and evaluation
// streams), so elimination never perturbs the randomness the selection
// stages consume. Results remain deterministic per (Seed, Options).
func (o Options) elimSampler(ctx context.Context) (*sampling.ParallelSampler, error) {
	return o.parallelSampler(ctx, "mcvec", 7)
}

// Solution is the outcome of a Problem 1 query.
type Solution struct {
	// Method that produced the solution.
	Method Method
	// Edges are the chosen new edges (≤ K, each with its probability).
	Edges []ugraph.Edge
	// Base and After are the s-t reliabilities before and after adding
	// Edges. When search-space elimination ran, Base is the mean of its two
	// estimates of R(s, t) on G, FromRel[t] and ToRel[s]: unbiased and
	// independent of the chosen edges, though its noise is the noise the
	// candidate ranking saw. With explicit Candidates or NoElimination,
	// Base is sampled on the held-out evaluation stream. After is always
	// estimated on the full graph plus Edges with that held-out sampler.
	Base, After float64
	// Gain = After − Base.
	Gain float64
	// CandidateCount is |E+|: the pairs search space elimination admits,
	// counted from its pair set without listing them, or the length of the
	// candidate list that explicit Candidates (repeats included) or
	// NoElimination give.
	CandidateCount int
	// PathCount is |P|, the number of extracted most reliable paths
	// (path-based methods only).
	PathCount int
	// ElimTime and SelectTime split the runtime into search-space
	// elimination and top-k edge selection (Tables 17-18).
	ElimTime, SelectTime time.Duration
}

// Solve answers a single-source-target budgeted reliability maximization
// query with the given method. Cancellation is cooperative: when ctx fires
// the samplers abort within one sample block, the greedy loops stop at the
// next round boundary, and Solve returns the partial Solution built so far
// (chosen edges, elimination stats; the held-out evaluation is skipped)
// together with an error wrapping ctx.Err().
func Solve(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, method Method, opt Options) (Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if err := checkQuery(g, s, t); err != nil {
		return Solution{}, err
	}
	if err := opt.Validate(g.N()); err != nil {
		return Solution{}, err
	}
	smp, err := opt.NewSampler(ctx, 1)
	if err != nil {
		return Solution{}, err
	}
	elim, err := opt.elimSampler(ctx)
	if err != nil {
		return Solution{}, err
	}

	elimStart := time.Now()
	res, err := candidateSet(ctx, g, s, t, elim, opt)
	if err != nil {
		return Solution{}, err
	}
	count := res.Len()
	elimTime := time.Since(elimStart)
	opt.emit(ProgressEvent{Stage: StageEliminate, Candidates: count})
	if cerr := ctx.Err(); cerr != nil {
		return Solution{Method: method, CandidateCount: count, ElimTime: elimTime},
			interrupted("candidate elimination", cerr)
	}

	selStart := time.Now()
	var edges []ugraph.Edge
	var pathCount int
	switch method {
	case MethodIndividualTopK:
		edges = individualTopK(ctx, g, s, t, res.List(), smp, opt)
	case MethodHillClimbing:
		edges = hillClimbing(ctx, g, s, t, res.List(), smp, opt)
	case MethodDegree:
		edges = centralityEdges(ctx, g, res.List(), opt, false)
	case MethodBetweenness:
		edges = centralityEdges(ctx, g, res.List(), opt, true)
	case MethodEigen:
		edges = eigenEdges(ctx, g, res.List(), opt)
	case MethodMRP:
		edges = mrpEdges(ctx, g, s, t, res.List(), opt)
	case MethodIP:
		edges, pathCount = pathSelect(ctx, g, s, t, res, smp, opt, false)
	case MethodBE:
		edges, pathCount = pathSelect(ctx, g, s, t, res, smp, opt, true)
	case MethodExact:
		edges, err = exactSearch(ctx, g, s, t, res.List(), smp, opt)
		if err != nil {
			return Solution{}, err
		}
	default:
		return Solution{}, fmt.Errorf("core: method %q: %w", method, ErrUnknownMethod)
	}
	selTime := time.Since(selStart)

	sol := Solution{
		Method:         method,
		Edges:          edges,
		CandidateCount: count,
		PathCount:      pathCount,
		ElimTime:       elimTime,
		SelectTime:     selTime,
	}
	if cerr := ctx.Err(); cerr != nil {
		// Partial: the edges selected before the context fired, without
		// the held-out evaluation.
		return sol, interrupted("edge selection", cerr)
	}
	// Held-out evaluation with an independent stream.
	opt.emit(ProgressEvent{Stage: StageEvaluate, Edges: len(edges), Candidates: count, Paths: pathCount})
	eval, err := opt.NewSampler(ctx, 2)
	if err != nil {
		return Solution{}, err
	}
	sol.Base, sol.After = evaluate(eval, g, s, t, res, edges)
	if cerr := ctx.Err(); cerr != nil {
		sol.Base, sol.After = 0, 0 // interrupted estimates are not meaningful
		return sol, interrupted("evaluation", cerr)
	}
	sol.Gain = sol.After - sol.Base
	return sol, nil
}

func checkQuery(g *ugraph.Graph, s, t ugraph.NodeID) error {
	if s < 0 || int(s) >= g.N() {
		return fmt.Errorf("core: source %d out of range: %w", s, ErrBadQuery)
	}
	if t < 0 || int(t) >= g.N() {
		return fmt.Errorf("core: target %d out of range: %w", t, ErrBadQuery)
	}
	if s == t {
		return fmt.Errorf("core: source equals target (%d): %w", s, ErrBadQuery)
	}
	return nil
}

// candidateSet builds E+ for the query per the configured policy: the
// listed candidates when the query fixes them (see listedCandidates), else
// Algorithm 4's pairs, left implicit. smp is the elimination estimator
// (opt.elimSampler) — only consulted when Algorithm 4 actually runs, and
// only then does the Result carry the FromRel and ToRel vectors, taken
// from opt.Vectors when it memoises g.
func candidateSet(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, smp *sampling.ParallelSampler, opt Options) (candidates.Result, error) {
	if cands, ok := listedCandidates(g, opt); ok {
		return candidates.Result{Edges: cands}, nil
	}
	copt := candidates.Options{R: opt.R, H: opt.H, Zeta: opt.Zeta}
	if m := opt.Vectors; m != nil && m.g == g {
		from := m.vector(ctx, smp, s, true, opt)
		to := m.vector(ctx, smp, t, false, opt)
		return candidates.EliminateVectors(g, from, to, copt), nil
	}
	return candidates.EliminatePairs(g, s, t, smp, copt), nil
}

// listedCandidates returns E+ when a query fixes it without Algorithm 4:
// the explicit Candidates less self-loops and edges of g, with ζ for a
// non-positive probability, or under NoElimination every missing edge
// within H hops. ok is false when elimination is to run.
func listedCandidates(g *ugraph.Graph, opt Options) (cands []ugraph.Edge, ok bool) {
	if opt.Candidates != nil {
		out := make([]ugraph.Edge, 0, len(opt.Candidates))
		for _, e := range opt.Candidates {
			if e.U == e.V || g.HasEdge(e.U, e.V) {
				continue
			}
			if e.P <= 0 {
				e.P = opt.Zeta
			}
			out = append(out, e)
		}
		return out, true
	}
	if opt.NoElimination {
		return candidates.AllMissing(g, opt.H, opt.Zeta), true
	}
	return nil, false
}

// evaluate estimates the s–t reliability before and after adding edges.
// When Algorithm 4 ran, elim's vectors already hold two estimates of Base
// on G, FromRel[t] and ToRel[s], and Base is their mean: it is unbiased and
// independent of the chosen edges, though its noise is the noise the
// candidate ranking saw. Otherwise eval samples Base first. eval always
// samples After.
func evaluate(eval sampling.Sampler, g *ugraph.Graph, s, t ugraph.NodeID, elim candidates.Result, edges []ugraph.Edge) (base, after float64) {
	if elim.FromRel != nil {
		base = (elim.FromRel[t] + elim.ToRel[s]) / 2
	} else {
		base = eval.Reliability(g, s, t)
	}
	return base, eval.ReliabilityCSR(g.Freeze().WithEdges(edges), s, t)
}
