package datasets

import (
	"math/rand"

	"repro/internal/ugraph"
)

// ApplyWrites mutates g in place with batches seeded write batches, the mix
// perfbench's solve-under-writes writer sends: each batch holds 1–4 edits,
// half re-probing a live edge to p ∈ [0.1, 0.9), a quarter adding an edge
// and a quarter removing one, so the edge count stays level. The draws
// follow that writer's edge model step for step, so seed 1_000_005 replays
// the batches it sends at perfbench seed 1.
func ApplyWrites(g *ugraph.Graph, batches int, seed int64) {
	norm := func(u, v ugraph.NodeID) [2]ugraph.NodeID {
		if !g.Directed() && u > v {
			u, v = v, u
		}
		return [2]ugraph.NodeID{u, v}
	}
	var keys [][2]ugraph.NodeID
	for _, e := range g.Edges() {
		keys = append(keys, norm(e.U, e.V))
	}
	pos := make(map[[2]ugraph.NodeID]int, len(keys))
	for i, k := range keys {
		pos[k] = i
	}
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < batches; b++ {
		for size, done := 1+r.Intn(4), 0; done < size; {
			p := float64(100+r.Intn(800)) / 1000
			switch x := r.Intn(4); {
			case x < 2:
				k := keys[r.Intn(len(keys))]
				eid, _ := g.EdgeID(k[0], k[1])
				if err := g.SetProb(eid, p); err != nil {
					panic(err)
				}
			case x == 2:
				u, v := ugraph.NodeID(r.Intn(g.N())), ugraph.NodeID(r.Intn(g.N()))
				if u == v || g.HasEdge(u, v) {
					continue
				}
				k := norm(u, v)
				pos[k] = len(keys)
				keys = append(keys, k)
				g.MustAddEdge(u, v, p)
			default:
				k := keys[r.Intn(len(keys))]
				i, last := pos[k], keys[len(keys)-1]
				keys[i], pos[last] = last, i
				keys = keys[:len(keys)-1]
				delete(pos, k)
				if err := g.RemoveEdge(k[0], k[1]); err != nil {
					panic(err)
				}
			}
			done++
		}
	}
}
