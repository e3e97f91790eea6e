package datasets

import (
	"math/rand"

	"repro/internal/ugraph"
)

// WriteBatches draws batches seeded write batches against g, the mix
// perfbench's solve-under-writes writer sends: each batch holds 1–4 edits,
// half re-probing a live edge to p ∈ [0.1, 0.9), a quarter adding an edge
// and a quarter removing one, so the edge count stays level. Each batch is
// drawn against the graph the earlier batches leave, and g itself is not
// changed. The draws follow that writer's edge model step for step, so seed
// 1_000_005 replays the batches it sends at perfbench seed 1.
func WriteBatches(g *ugraph.Graph, batches int, seed int64) [][]ugraph.DeltaEdit {
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
	out := make([][]ugraph.DeltaEdit, batches)
	for b := range out {
		size := 1 + r.Intn(4)
		batch := make([]ugraph.DeltaEdit, 0, size)
		for len(batch) < size {
			p := float64(100+r.Intn(800)) / 1000
			switch x := r.Intn(4); {
			case x < 2:
				k := keys[r.Intn(len(keys))]
				batch = append(batch, ugraph.DeltaEdit{Op: ugraph.DeltaSetProb, U: k[0], V: k[1], P: p})
			case x == 2:
				u, v := ugraph.NodeID(r.Intn(g.N())), ugraph.NodeID(r.Intn(g.N()))
				k := norm(u, v)
				if _, dup := pos[k]; u == v || dup {
					continue
				}
				pos[k] = len(keys)
				keys = append(keys, k)
				batch = append(batch, ugraph.DeltaEdit{Op: ugraph.DeltaAdd, U: u, V: v, P: p})
			default:
				k := keys[r.Intn(len(keys))]
				i, last := pos[k], keys[len(keys)-1]
				keys[i], pos[last] = last, i
				keys = keys[:len(keys)-1]
				delete(pos, k)
				batch = append(batch, ugraph.DeltaEdit{Op: ugraph.DeltaRemove, U: k[0], V: k[1]})
			}
		}
		out[b] = batch
	}
	return out
}

// ApplyWrites mutates g in place with the batches WriteBatches draws for
// (batches, seed), edit by edit.
func ApplyWrites(g *ugraph.Graph, batches int, seed int64) {
	for _, batch := range WriteBatches(g, batches, seed) {
		for _, e := range batch {
			var err error
			switch e.Op {
			case ugraph.DeltaSetProb:
				eid, _ := g.EdgeID(e.U, e.V)
				err = g.SetProb(eid, e.P)
			case ugraph.DeltaAdd:
				_, err = g.AddEdge(e.U, e.V, e.P)
			default:
				err = g.RemoveEdge(e.U, e.V)
			}
			if err != nil {
				panic(err)
			}
		}
	}
}
