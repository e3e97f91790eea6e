package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro"
)

// workload is one traffic mix served by relmaxd. The sequence length is
// fixed by --seconds through perSecond, never by a deadline: every run of a
// workload replays the same requests to completion, so the work measured
// does not depend on how fast the machine happened to be.
type workload struct {
	name    string
	dataset string
	scale   float64
	// durable serves the dataset from a -data-dir (WAL + checkpoints).
	durable bool
	// cacheEveryKey sizes relmaxd's -cache to the run's distinct keys, so
	// no key is evicted; otherwise relmaxd keeps its default.
	cacheEveryKey bool
	// primary is the timed op: opSolve, opEstimate or opBurst.
	primary string
	clients int
	// perSecond primary ops per second of --seconds.
	perSecond float64
	// writerPerSecond is how many background mutation batches each second
	// of --seconds adds (0: none). They are spread evenly over the primary
	// ops' completions and are applied but not timed.
	writerPerSecond float64
}

const (
	opSolve    = "solve"
	opEstimate = "estimate"
	opMutate   = "mutate"
	// opBurst is burstLen mutation batches sent back to back, timed as one.
	opBurst = "burst"
)

// Fixed parameters of the generated traffic.
const (
	warmupPerClient = 2   // untimed requests per client before the timed phase
	estimateHitRate = 0.7 // estimate-skewed: share of requests that repeat an earlier key
	precisionShare  = 0.3 // estimate-skewed: share of keys sent in anytime (precision) mode
	zipfS           = 1.2 // estimate-skewed: skew of the repeats over the keys
	// A mutate-burst burst is as long as relmaxd's default delta chain (16
	// layers), so each burst carries one fold, and a checkpoint (every 64
	// batches) lands in every fourth burst. burstBig of its batches hold 16
	// edits, the rest one.
	burstLen = 16
	burstBig = 4
	// probeSolves is how many seeded solves the traced run's probes time.
	probeSolves = 5
)

// BENCHMARK.json gates solve-cold and solve-under-writes, which keep
// relmaxd saturated; estimate-skewed and mutate-burst idle it between
// requests, so their figures follow the host's steal (see README.md).
var workloads = []workload{
	{name: "solve-cold", dataset: "lastfm", scale: 0.08, primary: opSolve, clients: 2, perSecond: 16},
	{name: "estimate-skewed", dataset: "lastfm", scale: 0.08, cacheEveryKey: true, primary: opEstimate, clients: 1, perSecond: 300},
	{name: "solve-under-writes", dataset: "lastfm", scale: 0.08, durable: true, primary: opSolve, clients: 2, perSecond: 16, writerPerSecond: 10},
	{name: "mutate-burst", dataset: "lastfm", scale: 0.8, durable: true, primary: opBurst, clients: 1, perSecond: 70},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// datasetSeed is the seed relmaxd builds its built-in datasets with (its
// -seed default). The workload seed never reaches the server: it only
// drives the generated requests.
const datasetSeed = 1

// mutationJSON is one edit of a /v2/datasets/{name}/mutations batch.
type mutationJSON struct {
	Op string  `json:"op"`
	U  int32   `json:"u"`
	V  int32   `json:"v"`
	P  float64 `json:"p,omitempty"`
}

// op is one generated request with its pre-encoded body, or a burst of
// mutation requests.
type op struct {
	kind string
	// s, t: the solve pair.
	s, t int32
	// key indexes inputs.keys for estimates.
	key int
	// muts is the mutation batch.
	muts []mutationJSON
	// parts are a burst's batches.
	parts []op
	body  []byte
}

// estimateKey is one distinct estimate request.
type estimateKey struct {
	Pairs     [][2]int32 `json:"pairs"`
	Precision float64    `json:"precision,omitempty"`
}

// inputs is everything one run sends, generated from the workload seed.
type inputs struct {
	w     workload
	seed  int64
	g     *repro.Graph
	keys  []estimateKey
	warm  [][]op // per client, untimed
	timed [][]op // per client
	// writer holds the background batches of solve-under-writes.
	writer []op
	// probe holds the seeded solves the traced run's layer probes time.
	probe []op
	// finalM is the model's edge count after every batch applied.
	finalM int
	// mutations counts every edit sent, warm-up included.
	mutations int
	// cache is relmaxd's -cache for the run; 0 keeps its default.
	cache int
}

// sub derives an independent stream seed for one use of the workload seed.
func sub(seed, label int64) int64 { return seed*1_000_003 + label }

// buildInputs generates the request sequence of w for seed and a run of
// the given length. The same arguments always give the same sequence.
func buildInputs(w workload, seed int64, seconds int) (*inputs, error) {
	g, err := repro.LoadDataset(w.dataset, w.scale, datasetSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, g: g, warm: make([][]op, w.clients), timed: make([][]op, w.clients)}
	n := int(w.perSecond * float64(seconds))
	if n < w.clients {
		n = w.clients
	}
	probe, err := distinctPairs(g, probeSolves, sub(seed, 7))
	if err != nil {
		return nil, err
	}
	for _, p := range probe {
		in.probe = append(in.probe, solveOp(p))
	}
	model := newEdgeModel(g)
	switch w.primary {
	case opSolve:
		pairs, err := distinctPairs(g, warmupPerClient*w.clients+n, sub(seed, 1))
		if err != nil {
			return nil, err
		}
		for i, p := range pairs {
			o := solveOp(p)
			if i < warmupPerClient*w.clients {
				in.warm[i%w.clients] = append(in.warm[i%w.clients], o)
			} else {
				c := (i - warmupPerClient*w.clients) % w.clients
				in.timed[c] = append(in.timed[c], o)
			}
		}
		if w.writerPerSecond > 0 {
			r := rand.New(rand.NewSource(sub(seed, 2)))
			for i := 0; i < int(w.writerPerSecond*float64(seconds)); i++ {
				in.writer = append(in.writer, mutateOp(model.batch(r, 1+r.Intn(4))))
			}
		}
	case opEstimate:
		if err := in.buildEstimates(n); err != nil {
			return nil, err
		}
	case opBurst:
		r := rand.New(rand.NewSource(sub(seed, 3)))
		in.warm[0] = append(in.warm[0], burstOp(model, r))
		for i := 0; i < n; i++ {
			in.timed[0] = append(in.timed[0], burstOp(model, r))
		}
	}
	in.finalM = len(model.keys)
	in.mutations = model.edits
	if w.cacheEveryKey {
		in.cache = len(in.keys)
	}
	return in, nil
}

// buildEstimates lays out estimate-skewed: D = (1-hitRate)·n distinct keys,
// each sent once plus n-D Zipf-drawn repeats. Keys alternate between the two
// clients, so no key is ever in flight twice and, with the cache holding
// every key, exactly n-D requests hit: the hit ratio is fixed by
// construction, not by timing. buildInputs sizes the cache to every key.
func (in *inputs) buildEstimates(n int) error {
	w := in.w
	d := int((1 - estimateHitRate) * float64(n))
	if d < w.clients {
		d = w.clients
	}
	warm := warmupPerClient * w.clients
	pairs, err := distinctPairs(in.g, 2*(d+warm), sub(in.seed, 4))
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(sub(in.seed, 5)))
	// Key i takes pair 2i, plus pair 2i+1 on half the keys, so pair lists
	// never coincide and neither do fingerprints. Which keys get a second
	// pair or precision mode is drawn, but how many is fixed, so every seed
	// asks for the same mix of work.
	shape := r.Perm(d + warm)
	precise := int(precisionShare * float64(d+warm))
	for i := 0; i < d+warm; i++ {
		k := estimateKey{Pairs: [][2]int32{pairs[2*i]}}
		if shape[i]%2 == 0 {
			k.Pairs = append(k.Pairs, pairs[2*i+1])
		}
		if shape[i] < precise {
			k.Precision = 0.03 + 0.01*float64(shape[i]%3)
		}
		in.keys = append(in.keys, k)
	}
	for i := 0; i < warm; i++ {
		in.warm[i%w.clients] = append(in.warm[i%w.clients], in.estimateOp(d+i))
	}
	counts := make([]int, d)
	for i := range counts {
		counts[i] = 1
	}
	z := rand.NewZipf(r, zipfS, 1, uint64(d-1))
	for i := d; i < n; i++ {
		counts[z.Uint64()]++
	}
	// Zipf rank k maps to key perm[k], so popularity is not tied to the
	// order pairs were drawn in.
	perm := r.Perm(d)
	for k, c := range counts {
		key := perm[k]
		for j := 0; j < c; j++ {
			cl := key % w.clients
			in.timed[cl] = append(in.timed[cl], in.estimateOp(key))
		}
	}
	for _, c := range in.timed {
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	return nil
}

// distinctPairs draws count distinct s-t pairs 3-5 hops apart (the paper's
// query generator), so every pair is connected and no solve fails.
func distinctPairs(g *repro.Graph, count int, seed int64) ([][2]int32, error) {
	seen := make(map[[2]int32]bool, count)
	out := make([][2]int32, 0, count)
	for round := int64(0); round < 8 && len(out) < count; round++ {
		for _, q := range repro.Queries(g, 2*count, 3, 5, sub(seed, round)) {
			p := [2]int32{q.S, q.T}
			if seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
			if len(out) == count {
				break
			}
		}
	}
	if len(out) < count {
		return nil, fmt.Errorf("only %d distinct 3-5 hop pairs, want %d", len(out), count)
	}
	return out, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are encoded
	}
	return b
}

func solveOp(p [2]int32) op {
	return op{kind: opSolve, s: p[0], t: p[1],
		body: mustJSON(map[string]int32{"s": p[0], "t": p[1]})}
}

func (in *inputs) estimateOp(key int) op {
	return op{kind: opEstimate, key: key, body: mustJSON(in.keys[key])}
}

// burstOp draws one burst: burstLen batches, burstBig of them with 16 edits
// in drawn positions.
func burstOp(model *edgeModel, r *rand.Rand) op {
	b := op{kind: opBurst}
	for _, i := range r.Perm(burstLen) {
		size := 1
		if i < burstBig {
			size = 16
		}
		b.parts = append(b.parts, mutateOp(model.batch(r, size)))
	}
	return b
}

func mutateOp(muts []mutationJSON) op {
	return op{kind: opMutate, muts: muts, body: mustJSON(map[string]any{"mutations": muts})}
}

// edgeModel tracks the edge set so every generated mutation is valid when
// the batches apply in order.
type edgeModel struct {
	n        int32
	directed bool
	keys     [][2]int32
	index    map[[2]int32]int
	edits    int
}

func newEdgeModel(g *repro.Graph) *edgeModel {
	m := &edgeModel{n: int32(g.N()), directed: g.Directed(), index: make(map[[2]int32]int)}
	for _, e := range g.Edges() {
		m.insert(m.norm(e.U, e.V))
	}
	return m
}

func (m *edgeModel) norm(u, v int32) [2]int32 {
	if !m.directed && u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (m *edgeModel) insert(k [2]int32) {
	m.index[k] = len(m.keys)
	m.keys = append(m.keys, k)
}

func (m *edgeModel) remove(k [2]int32) {
	i := m.index[k]
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.index[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.index, k)
}

// batch draws size edits: half re-probe an edge, a quarter add one and a
// quarter remove one, so the edge count stays level over a run.
func (m *edgeModel) batch(r *rand.Rand, size int) []mutationJSON {
	out := make([]mutationJSON, 0, size)
	for len(out) < size {
		p := float64(100+r.Intn(800)) / 1000
		switch x := r.Intn(4); {
		case x < 2:
			k := m.keys[r.Intn(len(m.keys))]
			out = append(out, mutationJSON{Op: "set-prob", U: k[0], V: k[1], P: p})
		case x == 2:
			u, v := int32(r.Intn(int(m.n))), int32(r.Intn(int(m.n)))
			k := m.norm(u, v)
			if _, dup := m.index[k]; u == v || dup {
				continue
			}
			m.insert(k)
			out = append(out, mutationJSON{Op: "add-edge", U: u, V: v, P: p})
		default:
			k := m.keys[r.Intn(len(m.keys))]
			m.remove(k)
			out = append(out, mutationJSON{Op: "remove-edge", U: k[0], V: k[1]})
		}
	}
	m.edits += len(out)
	return out
}
