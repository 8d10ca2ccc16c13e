package spectral

import (
	"math/rand"
	"reflect"
	"testing"

	"fedsc/internal/kmeans"
	"fedsc/internal/sparse"
)

// estimateReference is EstimateAndCluster written the long way: the
// whole bottom band of eigenpairs from LaplacianEigs, the eigengap over
// its values, and k-means on its first r vectors.
func estimateReference(w *sparse.CSR, maxK int, rng *rand.Rand) (int, []int) {
	n, _ := w.Dims()
	limit := n - 1
	if maxK > 0 && maxK < limit {
		limit = maxK
	}
	vals, vecs := LaplacianEigs(w, limit+1, rng)
	r := scoreEigengap(vals, limit)
	if r <= 1 {
		return r, make([]int, n)
	}
	emb := vecs.SliceCols(0, r)
	normalizeEmbedding(emb)
	return r, kmeans.Run(emb, r, rng, kmeans.Options{Restarts: 8}).Labels
}

// TestEstimateAndClusterMatchesReference checks the values-first
// eigengap against the full-band reference over graphs that take both
// value solvers (bisection at 2k ≤ n, QL otherwise) and the Lanczos
// branch, repeated zero eigenvalues and isolated vertices included.
func TestEstimateAndClusterMatchesReference(t *testing.T) {
	block := func(sizes []int, cross float64, seed int64) *sparse.CSR {
		w, _ := blockGraph(sizes, cross, rand.New(rand.NewSource(seed)))
		return w
	}
	for _, tc := range []struct {
		name string
		w    *sparse.CSR
		maxK int
	}{
		{"two blocks, weak link", block([]int{15, 15}, 0.01, 1), 0},
		{"two blocks, capped search", block([]int{15, 15}, 0.01, 2), 4},
		{"three blocks", block([]int{10, 12, 8}, 0.05, 3), 0},
		{"four disconnected blocks", block([]int{6, 7, 8, 9}, 0, 4), 0},
		{"four disconnected, capped", block([]int{6, 7, 8, 9}, 0, 5), 6},
		{"one block", block([]int{12}, 0, 6), 0},
		{"isolated vertices", isolatedGraph(8, 4, rand.New(rand.NewSource(7))), 0},
		{"isolated vertices, capped", isolatedGraph(8, 4, rand.New(rand.NewSource(8))), 2},
		{"above the dense cutoff", block([]int{150, 150}, 0.01, 9), 4},
	} {
		for seed := int64(0); seed < 3; seed++ {
			wantR, want := estimateReference(tc.w, tc.maxK, rand.New(rand.NewSource(seed)))
			gotR, got := EstimateAndCluster(tc.w, tc.maxK, rand.New(rand.NewSource(seed)))
			if gotR != wantR || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: r=%d labels %v; reference r=%d labels %v", tc.name, seed, gotR, got, wantR, want)
			}
		}
	}
}
