package ugraph

import "fmt"

// MaxExactEdges bounds the edge count accepted by ExactReliability. The
// conditioning recursion prunes aggressively, but its worst case is still
// exponential in M.
const MaxExactEdges = 30

// ExactReliability computes R(s, t, G) exactly by recursive conditioning
// over edge states (Equation 2 of the paper). An edge is fixed present or
// absent at each level; branches where t is already reachable through
// present edges contribute their full remaining probability mass, and
// branches where t is unreachable even using all undetermined edges
// contribute zero. Exact computation is #P-complete in general, so the
// graph must have at most MaxExactEdges edges.
func (g *Graph) ExactReliability(s, t NodeID) (float64, error) {
	if err := g.checkNode(s); err != nil {
		return 0, err
	}
	if err := g.checkNode(t); err != nil {
		return 0, err
	}
	if g.M() > MaxExactEdges {
		return 0, fmt.Errorf("ugraph: exact reliability needs M <= %d edges, have %d", MaxExactEdges, g.M())
	}
	if s == t {
		return 1, nil
	}
	ex := &exactState{
		g:      g,
		s:      s,
		t:      t,
		status: make([]int8, g.M()),
		seen:   make([]bool, g.N()),
		queue:  make([]NodeID, 0, g.N()),
	}
	return ex.recurse(0, 1.0), nil
}

type exactState struct {
	g      *Graph
	s, t   NodeID
	status []int8 // 0 undetermined, +1 present, -1 absent
	seen   []bool
	queue  []NodeID
}

// reachable reports whether t is reachable from s using edges whose status
// passes the filter: present-only (optimistic=false) or present∪undetermined
// (optimistic=true).
func (ex *exactState) reachable(optimistic bool) bool {
	for i := range ex.seen {
		ex.seen[i] = false
	}
	ex.queue = ex.queue[:0]
	ex.queue = append(ex.queue, ex.s)
	ex.seen[ex.s] = true
	for len(ex.queue) > 0 {
		u := ex.queue[len(ex.queue)-1]
		ex.queue = ex.queue[:len(ex.queue)-1]
		if u == ex.t {
			return true
		}
		for _, a := range ex.g.out[u] {
			st := ex.status[a.EID]
			ok := st == 1 || (optimistic && st == 0)
			if ok && !ex.seen[a.To] {
				ex.seen[a.To] = true
				ex.queue = append(ex.queue, a.To)
			}
		}
	}
	return false
}

func (ex *exactState) recurse(next int, weight float64) float64 {
	if weight == 0 {
		return 0
	}
	if ex.reachable(false) {
		return weight
	}
	if !ex.reachable(true) {
		return 0
	}
	// Find the next undetermined edge. The optimistic check above
	// guarantees one exists (otherwise present-only and optimistic
	// reachability would agree).
	for next < len(ex.status) && ex.status[next] != 0 {
		next++
	}
	if next >= len(ex.status) {
		return 0
	}
	p := ex.g.p[next]
	total := 0.0
	ex.status[next] = 1
	total += ex.recurse(next+1, weight*p)
	ex.status[next] = -1
	total += ex.recurse(next+1, weight*(1-p))
	ex.status[next] = 0
	return total
}
