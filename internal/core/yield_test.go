package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestServedSolveYieldsInPathsAndSelect checks that the two solver stages
// that draw no samples, top-l path search and exact batch scoring, yield
// the processor: on one processor, a goroutine made runnable when a stage
// starts runs before the stage ends, although neither stage here comes
// near the runtime's 10 ms preemption tick.
func TestServedSolveYieldsInPathsAndSelect(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Each stage start spawns a probe; the next stage's first event
	// records whether that probe had run.
	ranIn := map[Stage]bool{}
	var probe *atomic.Bool
	var probeStage Stage
	start := func(stage Stage) {
		ran := new(atomic.Bool)
		probe, probeStage = ran, stage
		go ran.Store(true)
	}
	end := func() {
		if probe != nil {
			ranIn[probeStage] = probe.Load()
			probe = nil
		}
	}
	opt := Options{K: 4, Zeta: 0.5, R: 12, L: 10, Z: 400, Sampler: "rss", Seed: 7, H: 3}
	opt.Progress = func(ev ProgressEvent) {
		switch ev.Stage {
		case StageEliminate:
			start(StagePaths)
		case StagePaths:
			end()
			start(StageSelect)
		case StageSelect:
			end()
		}
	}
	if _, err := Solve(ctx, buildTestGraph(5), 0, 39, MethodBE, opt); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []Stage{StagePaths, StageSelect} {
		ran, seen := ranIn[stage]
		if !seen {
			t.Fatalf("no %s stage observed", stage)
		}
		if !ran {
			t.Errorf("%s: a runnable goroutine waited for the whole stage", stage)
		}
	}
}
