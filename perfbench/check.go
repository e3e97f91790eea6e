package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"repro"
)

// Engine defaults relmaxd runs with when its flags are left alone; the
// in-process reference engine must match them to be bit-identical.
const (
	serverSampler    = "rss"
	serverZ          = 500
	serverSeed       = 1
	serverWorkers    = -1
	serverCache      = 256
	serverQueueDepth = 64
)

func engineOptions(in *inputs) []repro.EngineOption {
	cache := in.cache
	if cache == 0 {
		cache = serverCache
	}
	return []repro.EngineOption{
		repro.WithSamplerKind(serverSampler),
		repro.WithSampleSize(serverZ),
		repro.WithSeed(serverSeed),
		repro.WithWorkers(serverWorkers),
		repro.WithResultCache(cache),
		repro.WithQueueDepth(serverQueueDepth),
	}
}

// edgeWire, solveWire and estimateWire are the fields of relmaxd's /v1
// replies that are a pure function of dataset, epoch and seed (the
// "timing" block is left out).
type edgeWire struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	P float64 `json:"p"`
}

type solveWire struct {
	Epoch      uint64     `json:"epoch"`
	Method     string     `json:"method"`
	Edges      []edgeWire `json:"edges"`
	Base       float64    `json:"base"`
	After      float64    `json:"after"`
	Gain       float64    `json:"gain"`
	Candidates int        `json:"candidates"`
	Paths      int        `json:"paths"`
}

type estimateWire struct {
	Epoch         uint64    `json:"epoch"`
	Reliabilities []float64 `json:"reliabilities"`
	Lo            []float64 `json:"lo,omitempty"`
	Hi            []float64 `json:"hi,omitempty"`
	SamplesUsed   []int     `json:"samples_used,omitempty"`
	StopReasons   []string  `json:"stop_reasons,omitempty"`
	Precision     float64   `json:"precision,omitempty"`
}

func solveWireOf(res repro.Result, epoch uint64) solveWire {
	sol := res.Solution
	w := solveWire{Epoch: epoch, Method: string(sol.Method), Edges: make([]edgeWire, len(sol.Edges)),
		Base: sol.Base, After: sol.After, Gain: sol.Gain, Candidates: sol.CandidateCount, Paths: sol.PathCount}
	for i, e := range sol.Edges {
		w.Edges[i] = edgeWire{U: e.U, V: e.V, P: e.P}
	}
	return w
}

func estimateWireOf(res repro.Result, epoch uint64) estimateWire {
	w := estimateWire{Epoch: epoch, Reliabilities: res.Reliabilities}
	for _, a := range res.AnytimeMany {
		w.Lo = append(w.Lo, a.Lo)
		w.Hi = append(w.Hi, a.Hi)
		w.SamplesUsed = append(w.SamplesUsed, a.SamplesUsed)
		w.StopReasons = append(w.StopReasons, a.StopReason)
		w.Precision = a.Precision
	}
	return w
}

func (in *inputs) query(o *op) repro.Query {
	if o.kind == opSolve {
		return repro.Query{Kind: repro.QuerySolve, S: o.s, T: o.t}
	}
	k := in.keys[o.key]
	q := repro.Query{Kind: repro.QueryEstimateMany}
	for _, p := range k.Pairs {
		q.Pairs = append(q.Pairs, repro.PairQuery{S: p[0], T: p[1]})
	}
	if k.Precision > 0 {
		q.Options = &repro.Options{Precision: k.Precision}
	}
	return q
}

func mutationsOf(muts []mutationJSON) []repro.Mutation {
	out := make([]repro.Mutation, len(muts))
	for i, m := range muts {
		out[i] = repro.Mutation{Op: repro.MutationOp(m.Op), U: m.U, V: m.V, P: m.P}
	}
	return out
}

// checker compares relmaxd's replies with an in-process Engine.
type checker struct {
	in       *inputs
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// epochs checks each mutation reply's epoch against the model, in which
// every edit advances the epoch by one. It returns the model's last epoch
// and how many replies disagreed.
func (c *checker) epochs(rs []sent, from uint64) (uint64, int) {
	e, bad := from, 0
	for i, r := range rs {
		e += uint64(len(r.op.muts))
		var reply struct {
			Epoch   uint64 `json:"epoch"`
			Applied int    `json:"applied"`
		}
		if !r.ok() {
			continue
		}
		if err := json.Unmarshal(r.body, &reply); err != nil {
			c.failf("mutation reply %d: %v", i, err)
			bad++
			continue
		}
		if reply.Epoch != e || reply.Applied != len(r.op.muts) {
			c.failf("mutation %d: epoch %d applied %d, model says epoch %d applied %d",
				i, reply.Epoch, reply.Applied, e, len(r.op.muts))
			bad++
		}
	}
	return e, bad
}

// check verifies every reply of the run: solves and estimates bit-identical
// to an in-process Engine at the same dataset, epoch and seed, and the
// write path ending at the model's epoch and edge count. It returns how many
// timed replies failed the check; every failure is also in c.problems.
func (c *checker) check(m *measured, initial, final datasetInfo) (int, error) {
	in := c.in
	ref, err := repro.NewEngine(in.g, engineOptions(in)...)
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	if initial.Epoch != ref.Epoch() || initial.M != in.g.M() {
		c.failf("served dataset at epoch %d with %d edges, in-process %d with %d",
			initial.Epoch, initial.M, ref.Epoch(), in.g.M())
	}
	e, _ := c.epochs(batches(m.warm), initial.Epoch)
	writes := m.writer
	if in.w.primary == opBurst {
		writes = batches(m.primary[0])
	}
	last, bad := c.epochs(writes, e)
	if final.Epoch != last || final.M != in.finalM {
		c.failf("dataset ended at epoch %d with %d edges, model says epoch %d with %d",
			final.Epoch, final.M, last, in.finalM)
	}
	if in.w.primary != opBurst {
		bad += c.checkReads(ref, m, writes)
	}
	return bad, nil
}

// batches returns the mutation replies among rs, bursts expanded.
func batches(rs []sent) []sent {
	var out []sent
	for _, r := range rs {
		switch r.op.kind {
		case opMutate:
			out = append(out, r)
		case opBurst:
			out = append(out, r.parts...)
		}
	}
	return out
}

// checkReads replays the writes on the reference engine in order and, at
// each epoch a read reported, recomputes that epoch's reads.
func (c *checker) checkReads(ref *repro.Engine, m *measured, writes []sent) int {
	byEpoch := map[uint64][]sent{}
	for _, r := range m.primaryAll() {
		if !r.ok() {
			continue
		}
		var head struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(r.body, &head); err != nil {
			c.failf("reply: %v", err)
			continue
		}
		byEpoch[head.Epoch] = append(byEpoch[head.Epoch], r)
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	// Reference answers are computed once the server is down, so every CPU
	// can work on them.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(prev)
	bad := 0
	next := 0
	for _, e := range epochs {
		for ref.Epoch() < e && next < len(writes) {
			if _, err := ref.Apply(context.Background(), mutationsOf(writes[next].op.muts)...); err != nil {
				c.failf("reference apply of batch %d: %v", next, err)
				return len(m.primaryAll())
			}
			next++
		}
		if ref.Epoch() != e {
			c.failf("%d replies report epoch %d, which no write produced", len(byEpoch[e]), e)
			bad += len(byEpoch[e])
			continue
		}
		bad += c.checkEpoch(ref, byEpoch[e], e)
	}
	return bad
}

// checkEpoch recomputes each distinct query of rs once and compares every
// reply with it.
func (c *checker) checkEpoch(ref *repro.Engine, rs []sent, epoch uint64) int {
	in := c.in
	type slot struct {
		q    repro.Query
		want any
		err  error
	}
	slots := map[string]*slot{}
	var order []*slot
	for _, r := range rs {
		k := string(r.op.body)
		if slots[k] == nil {
			s := &slot{q: in.query(r.op)}
			slots[k] = s
			order = append(order, s)
		}
	}
	work := make(chan *slot)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				res, err := ref.Run(context.Background(), s.q)
				s.err = err
				if s.q.Kind == repro.QuerySolve {
					s.want = solveWireOf(res, epoch)
				} else {
					s.want = estimateWireOf(res, epoch)
				}
			}
		}()
	}
	for _, s := range order {
		work <- s
	}
	close(work)
	wg.Wait()
	bad := 0
	for _, r := range rs {
		s := slots[string(r.op.body)]
		if s.err != nil {
			c.failf("in-process %s %s: %v", r.op.kind, r.op.body, s.err)
			bad++
			continue
		}
		if !c.matches(r, s.want, epoch) {
			bad++
		}
	}
	return bad
}

// matches decodes r's reply into want's wire type and compares the two.
func (c *checker) matches(r sent, want any, epoch uint64) bool {
	got := reflect.New(reflect.TypeOf(want))
	if err := json.Unmarshal(r.body, got.Interface()); err != nil {
		c.failf("reply to %s: %v", r.op.body, err)
		return false
	}
	if !reflect.DeepEqual(got.Elem().Interface(), want) {
		c.failf("reply to %s at epoch %d differs from in-process Engine:\n  got  %+v\n  want %+v",
			r.op.body, epoch, got.Elem().Interface(), want)
		return false
	}
	return true
}
