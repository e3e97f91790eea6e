// The race detector makes sync.Pool drop a random share of Puts and Gets,
// so pool-dependent allocation counts only hold in a normal build.

//go:build !race

package sampling

import "testing"

// TestFreshParallelSamplerAllocs pins the per-kind warm pools: once a
// kind's pool is warm, a fresh NewParallel plus one From vector allocates
// at most one object more than the same call on a reused sampler. That
// object is the ParallelSampler; request-scoped samplers build no pool or
// scratch of their own.
func TestFreshParallelSamplerAllocs(t *testing.T) {
	c := benchGraph(128, false).Freeze()
	for _, kind := range []string{"mc", "rss", "mcvec"} {
		for _, workers := range []int{1, 2} {
			reused := newParallelT(t, kind, 128, 7, workers)
			reused.ReliabilityFromCSR(c, 0) // warms the kind's pool
			warm := testing.AllocsPerRun(20, func() { reused.ReliabilityFromCSR(c, 0) })
			fresh := testing.AllocsPerRun(20, func() {
				ps, err := NewParallel(kind, 128, 7, workers)
				if err != nil {
					t.Fatal(err)
				}
				ps.ReliabilityFromCSR(c, 0)
			})
			if fresh > warm+1 {
				t.Errorf("%s w%d: fresh sampler %v allocs per call, reused %v; want at most one more", kind, workers, fresh, warm)
			}
		}
	}
}
