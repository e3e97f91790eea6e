package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"testing"

	"repro"
)

// bodies flattens a run's generated requests, warm-up, writer and burst
// parts included.
func bodies(in *inputs) [][]byte {
	var out [][]byte
	var add func(ops []op)
	add = func(ops []op) {
		for _, o := range ops {
			out = append(out, o.body)
			add(o.parts)
		}
	}
	for _, groups := range [][][]op{in.warm, in.timed, {in.writer}} {
		for _, g := range groups {
			add(g)
		}
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestSeedFixesTheSequence(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := buildInputs(w, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildInputs(w, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBodies(bodies(a), bodies(b)) {
				t.Fatal("seed 1 gave two different sequences")
			}
			c, err := buildInputs(w, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if sameBodies(bodies(a), bodies(c)) {
				t.Fatal("seeds 1 and 2 gave the same sequence")
			}
		})
	}
}

func TestSequenceLengthFollowsSeconds(t *testing.T) {
	for _, w := range workloads {
		in, err := buildInputs(w, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, c := range in.timed {
			got += len(c)
		}
		if want := int(w.perSecond * 4); got != want {
			t.Errorf("%s: %d primary ops for 4 s, want %d", w.name, got, want)
		}
	}
}

// TestEstimateHitRatioByConstruction checks that estimate-skewed's hit
// ratio follows from the sequence alone: keys never cross clients, so with
// the cache holding every key each repeat is a hit. It covers the run
// length BENCHMARK.json sets and the longest one it allows.
func TestEstimateHitRatioByConstruction(t *testing.T) {
	w, err := workloadByName("estimate-skewed")
	if err != nil {
		t.Fatal(err)
	}
	for _, seconds := range []int{10, benchmarkSeconds(t), 60} {
		in, err := buildInputs(w, 5, seconds)
		if err != nil {
			t.Fatal(err)
		}
		owner := map[int]int{}
		n := 0
		for c, ops := range in.timed {
			for _, o := range ops {
				n++
				if prev, ok := owner[o.key]; ok && prev != c {
					t.Fatalf("%d s: key %d sent by clients %d and %d", seconds, o.key, prev, c)
				}
				owner[o.key] = c
			}
		}
		for _, ops := range in.warm {
			for _, o := range ops {
				if _, ok := owner[o.key]; ok {
					t.Fatalf("%d s: warm-up key %d is also timed", seconds, o.key)
				}
				owner[o.key] = -1
			}
		}
		if len(owner) > in.cache {
			t.Fatalf("%d s: %d keys exceed the %d-entry cache", seconds, len(owner), in.cache)
		}
		ratio := 1 - float64(len(owner)-warmupPerClient*w.clients)/float64(n)
		if ratio < 0.6 || ratio > 0.8 {
			t.Fatalf("%d s: hit ratio %.3f outside [0.6, 0.8]", seconds, ratio)
		}
	}
}

// benchmarkSeconds returns run_seconds from the repository's BENCHMARK.json.
func benchmarkSeconds(t *testing.T) int {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil || spec.RunSeconds < 1 {
		t.Fatalf("BENCHMARK.json run_seconds: %v", err)
	}
	return spec.RunSeconds
}

// TestWriterFollowsReads checks that the timed phase sends writer batch i
// only after i·R/B of the R primary ops have completed, in order, whatever
// the ops cost.
func TestWriterFollowsReads(t *testing.T) {
	w, err := workloadByName("solve-under-writes")
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(w, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log []*op
	run := runTimed(in, func(o *op) sent {
		mu.Lock()
		log = append(log, o)
		mu.Unlock()
		return sent{op: o, status: http.StatusOK}
	})
	reads, batches := len(run.primaryAll()), len(in.writer)
	if reads == 0 || batches == 0 || len(run.writer) != batches {
		t.Fatalf("%d reads, %d of %d batches sent", reads, len(run.writer), batches)
	}
	started, next := 0, 0
	for _, o := range log {
		if o.kind != opMutate {
			started++
			continue
		}
		if o != &in.writer[next] {
			t.Fatalf("writer sent a batch out of order at batch %d", next)
		}
		if want := next * reads / batches; started < want {
			t.Fatalf("batch %d sent after %d reads started, want at least %d completed", next, started, want)
		}
		next++
	}
}

// TestMutationsApply checks that every generated batch is valid in order
// and that the model's edge count matches the engine's.
func TestMutationsApply(t *testing.T) {
	for _, name := range []string{"solve-under-writes", "mutate-burst"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := buildInputs(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := repro.NewEngine(in.g)
		if err != nil {
			t.Fatal(err)
		}
		start := eng.Epoch()
		var batches []op
		for _, group := range [][]op{in.warm[0], in.timed[0], in.writer} {
			for _, o := range group {
				switch o.kind {
				case opMutate:
					batches = append(batches, o)
				case opBurst:
					if len(o.parts) != burstLen {
						t.Fatalf("%s: burst of %d batches, want %d", name, len(o.parts), burstLen)
					}
					batches = append(batches, o.parts...)
				}
			}
		}
		for i, o := range batches {
			if _, err := eng.Apply(context.Background(), mutationsOf(o.muts)...); err != nil {
				t.Fatalf("%s batch %d: %v", name, i, err)
			}
		}
		if got := eng.Snapshot().M(); got != in.finalM {
			t.Errorf("%s: engine ends with %d edges, model %d", name, got, in.finalM)
		}
		if got := eng.Epoch() - start; got != uint64(in.mutations) {
			t.Errorf("%s: epoch advanced %d, model %d", name, got, in.mutations)
		}
		eng.Close()
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := tailSupported(tc.n, tc.q); got != tc.want {
			t.Errorf("tailSupported(%d, %.2f) = %t, want %t", tc.n, tc.q, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseProcCPU(t *testing.T) {
	// The command name holds spaces and a ')', as a process may name itself.
	stat := "4242 (relmaxd (x) y) S 1 4242 4242 0 -1 4194560 1200 0 0 0 731 112 0 0 20 0 9 0 5000 1000000 3000 18446744073709551615"
	got, err := parseProcCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 843 {
		t.Fatalf("utime+stime = %d ticks, want 843", got)
	}
	if _, err := parseProcCPU("4242 (relmaxd) S 1 2"); err == nil {
		t.Fatal("short stat line parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\trelmaxd\nVmPeak:\t  812340 kB\nVmHWM:\t   15044 kB\nVmRSS:\t   14980 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 15044 {
		t.Fatalf("VmHWM = %d, want 15044", got)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("missing field parsed")
	}
}

func TestParseHostCPU(t *testing.T) {
	a, err := parseHostCPU("cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 32 {
		t.Fatalf("got total %d steal %d, want 1000 and 32", a.total, a.steal)
	}
	b := hostCPU{total: 1200, steal: 52}
	if got := stealShare(a, b); got != 0.1 {
		t.Fatalf("steal share %v, want 0.1", got)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Fatal("non-cpu line parsed")
	}
}

func TestParseCPUModel(t *testing.T) {
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n\nprocessor\t: 1\nmodel name\t: other\n"
	if got := parseCPUModel(info); got != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("model %q", got)
	}
}
