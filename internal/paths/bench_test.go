package paths

import (
	"context"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datasets"
	"repro/internal/sampling"
)

// benchTopL extracts the top-30 paths of a BE solve's path stage the way
// core does, with TopLPairs over G and elimination's implicit pair set,
// building the searcher included, on the first seeded 3–5-hop pair of
// name×0.08, seed 1. E+ is what elimination keeps at relmaxd's defaults
// (r=100, ζ=0.5, mcvec elimination at z=500).
func benchTopL(b *testing.B, name string) {
	g, err := datasets.Load(name, 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := datasets.Queries(g, 1, 3, 5, 1)[0]
	res := candidates.EliminatePairs(g, q.S, q.T, sampling.NewMCVec(500, 7), candidates.Options{R: 100, Zeta: 0.5})
	ctx := context.Background()
	var ps []Path
	b.ReportAllocs()
	for b.Loop() {
		ps = TopLPairs(ctx, g, res.Pairs, q.S, q.T, 30)
	}
	b.ReportMetric(float64(len(ps)), "paths")
}

// BenchmarkTopL runs benchTopL on lastfm×0.08, the undirected served
// shape, whose 30th path lies in a band of about a hundred tied paths.
func BenchmarkTopL(b *testing.B) { benchTopL(b, "lastfm") }

// BenchmarkTopLDirected runs benchTopL on astopo×0.08, the directed served
// shape, so the reverse tree walks in-arcs and pair columns.
func BenchmarkTopLDirected(b *testing.B) { benchTopL(b, "astopo") }

// BenchmarkTopLTieBand runs benchTopL on dblp×0.08, whose 30th path lies
// in a band of several thousand tied three-hop paths, every one of which
// the enumeration accepts before it cuts at l.
func BenchmarkTopLTieBand(b *testing.B) { benchTopL(b, "dblp") }
