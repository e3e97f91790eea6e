package core

import (
	"errors"
	"fmt"

	"repro/internal/sampling"
)

// Sentinel errors classifying every failure mode of the solvers. All errors
// returned by Solve, SolveMulti and SolveTotalBudget wrap exactly one of
// these (or a context error when a query is cancelled or times out), so
// callers route on errors.Is instead of string matching — the HTTP layer in
// cmd/relmaxd maps them to status codes.
var (
	// ErrBadQuery marks structurally invalid queries: endpoints out of
	// range, source equal to target, empty source/target sets, unknown
	// aggregates, a ζ or candidate probability that is NaN or above 1.
	ErrBadQuery = errors.New("invalid query")
	// ErrUnknownMethod marks a Method the requested entry point does not
	// support.
	ErrUnknownMethod = errors.New("unknown method")
	// ErrUnknownSampler marks an unrecognized Options.Sampler kind. It is
	// the sampling package's sentinel, whose wrapping error lists the
	// known kinds.
	ErrUnknownSampler = sampling.ErrUnknownSampler
	// ErrBudget marks infeasible budgets: a non-positive total probability
	// budget, or an exact search whose combination count exceeds
	// Options.MaxExactCombos.
	ErrBudget = errors.New("infeasible budget")
	// ErrNoPath reports that a path-based solver (ip, be) extracted zero
	// source-target paths even on the candidate-augmented graph — there is
	// nothing to improve. The legacy free functions keep their historical
	// behaviour (an empty, zero-gain Solution with a nil error); the
	// stricter Engine.Solve surface maps that outcome to this sentinel so
	// serving layers can distinguish "nothing to do" from "did nothing".
	ErrNoPath = errors.New("no source-target path")
)

// interrupted wraps a context error observed while the named stage was
// running. The accompanying result is partial: whatever the solver had
// committed when the context fired (chosen edges so far, elimination
// stats), with the held-out evaluation skipped. errors.Is(err,
// context.Canceled) / context.DeadlineExceeded see through the wrap.
func interrupted(stage string, err error) error {
	return fmt.Errorf("core: %s interrupted: %w", stage, err)
}
