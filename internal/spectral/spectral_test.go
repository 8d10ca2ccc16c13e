package spectral

import (
	"math"
	"math/rand"
	"testing"

	"fedsc/internal/sparse"
)

// blockGraph builds an affinity graph with dense blocks of the given
// sizes, optional weak cross-block links, and symmetric weights.
func blockGraph(sizes []int, crossWeight float64, rng *rand.Rand) (*sparse.CSR, []int) {
	n := 0
	for _, s := range sizes {
		n += s
	}
	truth := make([]int, n)
	var entries []sparse.Coord
	off := 0
	for b, s := range sizes {
		for i := 0; i < s; i++ {
			truth[off+i] = b
			for j := i + 1; j < s; j++ {
				w := 0.5 + 0.5*rng.Float64()
				entries = append(entries, sparse.Coord{Row: off + i, Col: off + j, Val: w})
				entries = append(entries, sparse.Coord{Row: off + j, Col: off + i, Val: w})
			}
		}
		off += s
	}
	if crossWeight > 0 {
		// One weak edge between consecutive blocks.
		off = 0
		for b := 0; b+1 < len(sizes); b++ {
			i := off
			j := off + sizes[b]
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: crossWeight})
			entries = append(entries, sparse.Coord{Row: j, Col: i, Val: crossWeight})
			off += sizes[b]
		}
	}
	return sparse.NewCSR(n, n, entries), truth
}

func samePartition(a, b []int) bool {
	fw := map[int]int{}
	bw := map[int]int{}
	for i := range a {
		if v, ok := fw[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := bw[b[i]]; ok && v != a[i] {
			return false
		}
		fw[a[i]] = b[i]
		bw[b[i]] = a[i]
	}
	return true
}

func TestLaplacianEigsDisconnectedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	w, _ := blockGraph([]int{10, 12, 8}, 0, rng)
	vals, vecs := LaplacianEigs(w, 5, rng)
	// Three connected components: exactly three (near) zero eigenvalues,
	// then a jump.
	for i := 0; i < 3; i++ {
		if math.Abs(vals[i]) > 1e-8 {
			t.Fatalf("eigenvalue %d = %g, want 0", i, vals[i])
		}
	}
	if vals[3] < 0.1 {
		t.Fatalf("fourth eigenvalue %g should be clearly positive", vals[3])
	}
	if vecs.Cols() != 5 {
		t.Fatalf("requested 5 eigenvectors, got %d", vecs.Cols())
	}
}

func TestClusterRecoversBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	w, truth := blockGraph([]int{15, 20, 10}, 0.01, rng)
	labels := Cluster(w, 3, rng)
	if !samePartition(labels, truth) {
		t.Fatal("spectral clustering failed on near-block-diagonal graph")
	}
}

func TestClusterTrivialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	w := sparse.NewCSR(4, 4, []sparse.Coord{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if labels := Cluster(w, 1, rng); len(labels) != 4 {
		t.Fatal("k=1 should return all-zero labels of full length")
	}
	labels := Cluster(w, 4, rng)
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Fatal("k=n should return singletons")
	}
	empty := sparse.NewCSR(0, 0, nil)
	if labels := Cluster(empty, 3, rng); len(labels) != 0 {
		t.Fatal("empty graph should return empty labels")
	}
}

func TestClusterHandlesIsolatedVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	// Two connected pairs plus an isolated vertex; must not panic or NaN.
	w := sparse.NewCSR(5, 5, []sparse.Coord{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	})
	labels := Cluster(w, 3, rng)
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Fatalf("pairs should cluster together: %v", labels)
	}
	if labels[4] == labels[0] || labels[4] == labels[2] {
		t.Fatalf("isolated vertex should be its own cluster: %v", labels)
	}
}

func TestEstimateClustersEigengap(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, sizes := range [][]int{{10, 10}, {8, 12, 9}, {6, 6, 6, 6}} {
		w, _ := blockGraph(sizes, 0, rng)
		got, labels := EstimateAndCluster(w, 0, rng)
		if got != len(sizes) {
			t.Fatalf("sizes %v: estimated %d clusters (labels %v)", sizes, got, labels)
		}
	}
}

func TestEstimateClustersRespectsMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	w, _ := blockGraph([]int{5, 5, 5, 5, 5}, 0, rng)
	got, _ := EstimateAndCluster(w, 3, rng)
	if got > 3 {
		t.Fatalf("estimate %d exceeds maxK=3", got)
	}
}

func TestEstimateClustersTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	w := sparse.NewCSR(1, 1, nil)
	if got, _ := EstimateAndCluster(w, 0, rng); got != 1 {
		t.Fatalf("single vertex estimate = %d", got)
	}
}

func TestClusterLargeUsesLanczos(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph test")
	}
	rng := rand.New(rand.NewSource(77))
	// Above denseEigCutoff to exercise the Lanczos path.
	w, truth := blockGraph([]int{250, 220, 200}, 0.005, rng)
	labels := Cluster(w, 3, rng)
	if !samePartition(labels, truth) {
		t.Fatal("Lanczos-path spectral clustering failed")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
