package repro

import (
	"context"
	"io"

	"repro/internal/anytime"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/exp"
	"repro/internal/influence"
	"repro/internal/paths"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// Core graph types (see internal/ugraph).
type (
	// Graph is an uncertain graph: every edge carries an independent
	// existence probability.
	Graph = ugraph.Graph
	// Edge describes an edge or a proposed shortcut edge.
	Edge = ugraph.Edge
	// NodeID identifies a node in the dense range [0, N).
	NodeID = ugraph.NodeID
	// CSR is an immutable frozen snapshot of a Graph (Graph.Freeze):
	// flat cache-friendly adjacency that samplers traverse without
	// allocating, safe for unrestricted concurrent reads. CSR.WithEdges
	// adds candidate edges as a cheap delta-layer view for evaluation.
	CSR = ugraph.CSR
)

// Solver types (see internal/core).
type (
	// Method selects a Problem 1 solver.
	Method = core.Method
	// Options carries the query parameters (budget k, probability ζ,
	// elimination width r, path count l, hop bound h, sampler config).
	Options = core.Options
	// Solution is the result of Solve.
	Solution = core.Solution
	// Aggregate selects the Problem 4 objective (avg/min/max).
	Aggregate = core.Aggregate
	// MultiSolution is the result of SolveMulti.
	MultiSolution = core.MultiSolution
)

// Typed error taxonomy (see internal/core). Every error returned by the
// solvers — through the legacy free functions or an Engine — wraps exactly
// one of these sentinels, or a context error (context.Canceled,
// context.DeadlineExceeded) when a query was cancelled or timed out, so
// callers dispatch with errors.Is instead of string matching.
var (
	// ErrBadQuery marks structurally invalid queries (endpoints out of
	// range, source equals target, empty source/target sets, unknown
	// aggregates, a ζ or candidate probability that is NaN or above 1).
	ErrBadQuery = core.ErrBadQuery
	// ErrUnknownMethod marks a Method the entry point does not support.
	ErrUnknownMethod = core.ErrUnknownMethod
	// ErrUnknownSampler marks an unrecognized Options.Sampler kind.
	ErrUnknownSampler = core.ErrUnknownSampler
	// ErrBudget marks infeasible budgets (a total budget that is not
	// finite and positive, exact search beyond Options.MaxExactCombos).
	ErrBudget = core.ErrBudget
	// ErrNoPath reports that a path-based solver extracted zero s-t paths
	// even on the candidate-augmented graph.
	ErrNoPath = core.ErrNoPath
)

// Progress reporting (see Engine and Options.Progress).
type (
	// ProgressEvent is one solver progress notification.
	ProgressEvent = core.ProgressEvent
	// ProgressFunc receives solver progress notifications.
	ProgressFunc = core.ProgressFunc
	// ProgressStage identifies the solver pipeline phase of an event.
	ProgressStage = core.Stage
)

// Solver pipeline stages reported through ProgressEvent.
const (
	StageEliminate = core.StageEliminate
	StagePaths     = core.StagePaths
	StageSelect    = core.StageSelect
	StageEvaluate  = core.StageEvaluate
	// StageEstimate is anytime reliability estimation: events stream the
	// narrowing confidence interval (ProgressEvent.Lo/Hi/Samples).
	StageEstimate = core.StageEstimate
)

// Stop reasons reported by AnytimeEstimate.StopReason (see
// internal/anytime): the interval reached the requested precision, the
// MaxZ sample budget ran out, or the context deadline fired.
const (
	StopPrecision = anytime.StopPrecision
	StopBudget    = anytime.StopBudget
	StopDeadline  = anytime.StopDeadline
)

// Problem 1 solver methods.
const (
	// MethodBE is path-batches-based edge selection — the paper's
	// flagship solver (Algorithms 5+6).
	MethodBE = core.MethodBE
	// MethodIP is individual path-based edge selection (Algorithm 5).
	MethodIP = core.MethodIP
	// MethodMRP solves the restricted most-reliable-path problem exactly
	// (Algorithm 3).
	MethodMRP = core.MethodMRP
	// MethodHillClimbing is the greedy marginal-gain baseline
	// (Algorithm 1).
	MethodHillClimbing = core.MethodHillClimbing
	// MethodIndividualTopK ranks candidates by individual gain (§3.1).
	MethodIndividualTopK = core.MethodIndividualTopK
	// MethodDegree is the degree-centrality baseline (§3.3).
	MethodDegree = core.MethodDegree
	// MethodBetweenness is the betweenness-centrality baseline (§3.3).
	MethodBetweenness = core.MethodBetweenness
	// MethodEigen is the eigenvalue-based baseline (§3.4, Algorithm 2).
	MethodEigen = core.MethodEigen
	// MethodExact exhaustively enumerates candidate combinations.
	MethodExact = core.MethodExact
)

// Problem 4 aggregates.
const (
	// AggAvg maximizes the average pair reliability (§6.1).
	AggAvg = core.AggAvg
	// AggMin maximizes the minimum pair reliability (§6.2).
	AggMin = core.AggMin
	// AggMax maximizes the maximum pair reliability (§6.3).
	AggMax = core.AggMax
)

// NewGraph returns an empty uncertain graph over n nodes.
func NewGraph(n int, directed bool) *Graph { return ugraph.New(n, directed) }

// ReadGraph parses the plain-text edge-list format written by
// (*Graph).WriteEdgeList.
func ReadGraph(r io.Reader) (*Graph, error) { return ugraph.ReadEdgeList(r) }

// Solve answers a single-source-target budgeted reliability maximization
// query (Problem 1): the best k edges to add so that R(s, t) is maximized.
//
// Solve is the legacy non-cancellable entry point, kept for compatibility:
// it runs under context.Background. New callers — and anything serving
// queries — should construct an Engine and use Engine.Solve, which accepts
// a context (cancellation, deadlines), reuses its frozen snapshot across
// queries and returns the same results bit-for-bit at the same Options.
func Solve(g *Graph, s, t NodeID, method Method, opt Options) (Solution, error) {
	return core.Solve(context.Background(), g, s, t, method, opt)
}

// SolveMulti answers a multiple-source-target query (Problem 4) under the
// chosen aggregate. Supported methods: MethodBE, MethodHillClimbing,
// MethodEigen. Legacy non-cancellable wrapper; see Engine.SolveMulti.
func SolveMulti(g *Graph, sources, targets []NodeID, agg Aggregate, method Method, opt Options) (MultiSolution, error) {
	return core.SolveMulti(context.Background(), g, sources, targets, agg, method, opt)
}

// Methods lists every Problem 1 solver.
func Methods() []Method { return core.Methods() }

// TotalBudgetSolution is the result of SolveTotalBudget.
type TotalBudgetSolution = core.TotalBudgetSolution

// SolveTotalBudget solves the §9 future-work variant of Problem 1: instead
// of k edges at a fixed probability ζ, a TOTAL probability budget is
// allocated jointly across new edges (both the edge set and the per-edge
// probabilities are chosen by the solver). Legacy non-cancellable wrapper;
// see Engine.SolveTotalBudget.
func SolveTotalBudget(g *Graph, s, t NodeID, budget float64, opt Options) (TotalBudgetSolution, error) {
	return core.SolveTotalBudget(context.Background(), g, s, t, budget, opt)
}

// Sampler estimates s-t reliability on a Graph or directly on a frozen
// CSR snapshot (or a CSR.WithEdges view of one); see
// NewMonteCarloSampler and NewRSSSampler. The serial samplers are not safe
// for concurrent use; NewParallelSampler wraps any of them into a
// goroutine-safe, deterministic, batch-capable estimator.
type Sampler = sampling.Sampler

// BatchSampler is the batched-evaluation interface implemented by
// NewParallelSampler's result: many (s, t) queries, candidate edges or
// source/target vectors in one fanned-out call.
type BatchSampler = sampling.BatchSampler

// PairQuery is one (source, target) query for BatchSampler.EstimateMany.
type PairQuery = sampling.PairQuery

// NewParallelSampler shards the sample budget z of the named estimator
// ("mc", "rss" or "mcvec") across a pool of workers (<= 0 selects all
// CPUs). For a fixed seed the results are bit-identical at any worker
// count, and the sampler is safe for concurrent use. Every solve and
// estimate runs on one, sized by Options.Workers.
func NewParallelSampler(kind string, z int, seed int64, workers int) (BatchSampler, error) {
	ps, err := sampling.NewParallel(kind, z, seed, workers)
	if err != nil {
		return nil, err // avoid a typed-nil *ParallelSampler in the interface
	}
	return ps, nil
}

// NewMonteCarloSampler returns the classic possible-world sampler with z
// worlds per query.
func NewMonteCarloSampler(z int, seed int64) Sampler { return sampling.NewMonteCarlo(z, seed) }

// NewRSSSampler returns the recursive stratified sampler (lower variance at
// equal sample size).
func NewRSSSampler(z int, seed int64) Sampler { return sampling.NewRSS(z, seed) }

// NewMCVecSampler returns the word-parallel 64-lane Monte Carlo sampler:
// 64 possible worlds packed into uint64 lanes, propagated together by a
// bitset BFS and merged by pop-count. Statistically equivalent to
// NewMonteCarloSampler at the same budget — typically several times faster
// — but drawing a different deterministic stream (see sampling.MCVec for
// its determinism contract).
func NewMCVecSampler(z int, seed int64) Sampler { return sampling.NewMCVec(z, seed) }

// Path is a simple path with its existence probability.
type Path = paths.Path

// MostReliablePath returns the maximum-probability s-t path.
func MostReliablePath(g *Graph, s, t NodeID) (Path, bool) { return paths.MostReliable(g, s, t) }

// TopLPaths returns up to l most reliable simple s-t paths in decreasing
// probability, cut to 20 significant bits; paths equal that far come in
// the order the enumeration meets them (see package paths).
func TopLPaths(g *Graph, s, t NodeID, l int) []Path {
	return paths.TopL(context.Background(), g, s, t, l)
}

// MRPResult is the outcome of ImproveMostReliablePath.
type MRPResult = paths.MRPResult

// ImproveMostReliablePath solves the restricted Problem 2 exactly in
// polynomial time: pick ≤ k candidate edges maximizing the probability of
// the most reliable s-t path.
func ImproveMostReliablePath(g *Graph, candidates []Edge, s, t NodeID, k int) MRPResult {
	return paths.ImproveMostReliablePath(context.Background(), g, candidates, s, t, k)
}

// DatasetNames lists the built-in evaluation dataset stand-ins (Table 8).
func DatasetNames() []string { return datasets.Names() }

// LoadDataset builds a named dataset stand-in; scale multiplies the default
// node count and the result is deterministic in (name, scale, seed).
func LoadDataset(name string, scale float64, seed int64) (*Graph, error) {
	return datasets.Load(name, scale, seed)
}

// IntelLab builds the 54-sensor Intel Lab stand-in with node positions (in
// meters over the lab floor plan).
func IntelLab(seed int64) (*Graph, [][2]float64) { return datasets.IntelLab(seed) }

// EvalQuery is one s-t evaluation pair sampled by Queries. (The name
// Query now denotes the engine's typed query representation — see Query
// and Engine.Run.)
type EvalQuery = datasets.Query

// MultiQuery is one multiple-source-target evaluation instance.
type MultiQuery = datasets.MultiQuery

// Queries samples s-t query pairs whose endpoints are dMin..dMax hops
// apart (the paper's protocol uses 3..5).
func Queries(g *Graph, count, dMin, dMax int, seed int64) []EvalQuery {
	return datasets.Queries(g, count, dMin, dMax, seed)
}

// MultiQueries samples multi-source-target instances with q sources and q
// targets each.
func MultiQueries(g *Graph, count, q int, seed int64) []MultiQuery {
	return datasets.MultiQueries(g, count, q, seed)
}

// InfluenceConfig parameterizes the IC-model estimators.
type InfluenceConfig = influence.Config

// InfluenceSpread estimates the expected independent-cascade spread from
// sources restricted to targets (Equation 13).
func InfluenceSpread(g *Graph, sources, targets []NodeID, cfg InfluenceConfig) float64 {
	return influence.Spread(context.Background(), g, sources, targets, cfg)
}

// ExperimentTable is one rendered table/figure reproduction.
type ExperimentTable = exp.Table

// ExperimentParams sizes an experiment run.
type ExperimentParams = exp.Params

// ExperimentIDs lists the reproducible artifacts (table2..table25,
// fig5..fig8).
func ExperimentIDs() []string { return exp.IDs() }

// RunExperiment regenerates one table or figure of the paper's evaluation.
func RunExperiment(id string, p ExperimentParams) (ExperimentTable, error) {
	return exp.Run(context.Background(), id, p)
}

// RunExperimentContext is RunExperiment under a context: cancellation or
// deadline expiry aborts the experiment at the next query boundary with an
// error wrapping ctx.Err().
func RunExperimentContext(ctx context.Context, id string, p ExperimentParams) (ExperimentTable, error) {
	return exp.Run(ctx, id, p)
}
