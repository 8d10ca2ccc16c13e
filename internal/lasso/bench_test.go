package lasso

import (
	"math/rand"
	"testing"

	"fedsc/internal/datasets"
	"fedsc/internal/mat"
	"fedsc/internal/synth"
)

// gramSink keeps the benchmarked solves from being optimized away.
var gramSink []float64

// BenchmarkGram times every self-expression solve of one dictionary, as
// subspace.SSCCoefficients poses them (unit atoms, self banned,
// λ₁ = max correlation/50) but serially, at the two shapes the rounds
// spend their Lasso time on:
//   - highdim: round-highdim's pooled Phase 2 matrix, 120 unit columns
//     of simulated EMNIST in R^256;
//   - local: round-local's Phase 1 device, 30 points from two
//     5-dimensional subspaces of R^20.
func BenchmarkGram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	emnist := datasets.SimEMNIST(datasets.DefaultEMNIST(), 600, rng).X
	shapes := []struct {
		name string
		x    *mat.Dense
	}{
		{"highdim", emnist.SelectCols(rng.Perm(emnist.Cols())[:120])},
		{"local", synth.RandomSubspaces(20, 5, 2, rng).Sample(15, rng).X},
	}
	for _, s := range shapes {
		x := s.x.Clone()
		mat.NormalizeColumns(x)
		g := mat.Gram(x)
		n := g.Rows()
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for i := range n {
					self := []int{i}
					gramSink = Gram(g, g.Row(i), MaxCorrelation(g.Row(i), self)/50, 0, self)
				}
			}
		})
	}
}
