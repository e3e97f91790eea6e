package paths

import (
	"context"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datasets"
	"repro/internal/sampling"
)

// BenchmarkTopL extracts the top-30 paths of a BE solve's path stage the
// way core does, with TopLPairs over G and elimination's implicit pair set,
// building the searcher included: on lastfm×0.08 (seed 1), E+ is what
// elimination keeps for a seeded 3–5-hop pair at relmaxd's defaults
// (r=100, ζ=0.5, mcvec elimination at z=500).
func BenchmarkTopL(b *testing.B) {
	g, err := datasets.Load("lastfm", 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := datasets.Queries(g, 1, 3, 5, 1)[0]
	res := candidates.EliminatePairs(g, q.S, q.T, sampling.NewMCVec(500, 7), candidates.Options{R: 100, Zeta: 0.5})
	ctx := context.Background()
	var ps []Path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps = TopLPairs(ctx, g, res.Pairs, q.S, q.T, 30)
	}
	b.ReportMetric(float64(len(ps)), "paths")
}
