package core

// Stage identifies a solver pipeline phase in progress reporting.
type Stage string

// Pipeline stages, in execution order.
const (
	// StageEliminate is search-space elimination (Algorithm 4).
	StageEliminate Stage = "eliminate"
	// StagePaths is most-reliable-path extraction (top-l pool).
	StagePaths Stage = "paths"
	// StageSelect is the greedy edge/batch selection loop.
	StageSelect Stage = "select"
	// StageEvaluate is the held-out evaluation: After is sampled, and so
	// is Base when elimination did not run (otherwise Base comes from the
	// elimination vectors).
	StageEvaluate Stage = "evaluate"
	// StageEstimate is anytime reliability estimation: events stream the
	// narrowing confidence interval while the adaptive sampler runs.
	StageEstimate Stage = "estimate"
)

// ProgressEvent is one solver progress notification. Events are emitted
// synchronously from the solving goroutine at stage boundaries and after
// every selection round, so a callback can drive logs, metrics or serving
// dashboards; long callbacks stall the solve. Fields irrelevant to the
// stage are zero.
type ProgressEvent struct {
	// Stage is the pipeline phase the event reports on.
	Stage Stage
	// Round and Total count greedy selection rounds: Round is the number
	// of completed rounds, Total the maximum possible (the budget K).
	Round, Total int
	// Candidates is |E+| after search-space elimination.
	Candidates int
	// Paths is the number of extracted most reliable paths.
	Paths int
	// Batches is the number of path batches (groups) evaluated in the
	// reported selection round.
	Batches int
	// Edges is the number of edges chosen so far.
	Edges int
	// Lo and Hi bound the running confidence interval of an anytime
	// estimate (StageEstimate events only; note Lo can legitimately be 0,
	// so consumers key on Stage or Samples rather than non-zero Lo).
	Lo, Hi float64
	// Samples is the number of samples an anytime estimate has drawn so
	// far (StageEstimate events only).
	Samples int
}

// ProgressFunc receives solver progress notifications. Callbacks observe
// only bookkeeping — they cannot perturb results — and must be fast; they
// run inline on the solving goroutine.
type ProgressFunc func(ProgressEvent)

// emit invokes the configured progress callback, if any.
func (o Options) emit(ev ProgressEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}
