package core

import (
	"context"
	"fmt"

	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// exactSearch is the ES competitor of Table 11: enumerate every way of
// choosing min(k, |E+|) candidate edges, estimate the resulting s-t
// reliability, and keep the best combination. The combination count is
// capped by MaxExactCombos; larger instances return an error rather than
// running for days. Cancellation stops the enumeration at a combination
// boundary, keeping the best combination found so far.
func exactSearch(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, cands []ugraph.Edge, smp sampling.Sampler, opt Options) ([]ugraph.Edge, error) {
	k := opt.K
	if k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		return nil, nil
	}
	combos := binomial(len(cands), k)
	if combos < 0 || combos > opt.MaxExactCombos {
		return nil, fmt.Errorf("core: exact search needs %d combinations of %d candidates, cap is %d: %w",
			combos, len(cands), opt.MaxExactCombos, ErrBudget)
	}
	best := -1.0
	var bestSet []ugraph.Edge
	current := make([]ugraph.Edge, 0, k)
	// Freeze once; every combination is evaluated on a CSR.WithEdges view
	// instead of cloning and re-indexing the whole graph per combination.
	base := g.Freeze()
	evaluated := 0
	stopped := false
	var recurse func(start int)
	recurse = func(start int) {
		if stopped {
			return
		}
		if len(current) == k {
			// One ctx poll per 64 combinations: each evaluation already
			// runs a full sample budget, so this granularity is free.
			if evaluated&63 == 0 && ctx.Err() != nil {
				stopped = true
				return
			}
			evaluated++
			rel := smp.ReliabilityCSR(base.WithEdges(current), s, t)
			if rel > best {
				best = rel
				bestSet = append([]ugraph.Edge(nil), current...)
			}
			return
		}
		// Not enough candidates left to fill the combination.
		if len(cands)-start < k-len(current) {
			return
		}
		for i := start; i < len(cands); i++ {
			current = append(current, cands[i])
			recurse(i + 1)
			current = current[:len(current)-1]
			if stopped {
				return
			}
		}
	}
	recurse(0)
	return bestSet, nil
}

// binomial returns C(n, k), or -1 on overflow.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := 1
	for i := 1; i <= k; i++ {
		next := result * (n - k + i)
		if next < result {
			return -1 // overflow
		}
		result = next / i
	}
	return result
}
