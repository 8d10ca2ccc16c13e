package core

import (
	"math/rand"
	"testing"

	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

// pooledSamples builds a Phase 2 input the way a round would: unit-norm
// samples drawn from l known subspaces, columns interleaved across the
// subspaces (like round-robin device uploads), with ground-truth labels.
func pooledSamples(t *testing.T, ambient, dim, l, perCluster int, seed int64) (*mat.Dense, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(ambient, dim, l, rng)
	cols := make([]*mat.Dense, 0, l*perCluster)
	var truth []int
	for i := 0; i < perCluster; i++ {
		for g := 0; g < l; g++ {
			theta := sampleFromBasis(s.Bases[g], rng)
			m := mat.NewDense(ambient, 1)
			m.SetCol(0, theta)
			cols = append(cols, m)
			truth = append(truth, g)
		}
	}
	return mat.HStack(cols...), truth
}

func sameLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSingleShardBitIdentical: Shards 0 and 1 must take the exact path,
// consuming the rng identically and producing bit-identical labels.
func TestSingleShardBitIdentical(t *testing.T) {
	theta, _ := pooledSamples(t, 20, 3, 4, 8, 1)
	exact := CentralCluster(theta, 16, 4, CentralOptions{}, rand.New(rand.NewSource(7)))
	for _, shards := range []int{0, 1} {
		got := CentralCluster(theta, 16, 4, CentralOptions{Shards: shards}, rand.New(rand.NewSource(7)))
		if !sameLabels(exact.Labels, got.Labels) {
			t.Fatalf("Shards=%d labels differ from the unsharded path", shards)
		}
		if exact.Affinity.NNZ() != got.Affinity.NNZ() {
			t.Fatalf("Shards=%d affinity differs from the unsharded path", shards)
		}
	}
}

// TestShardedParity: the sharded path must recover the same clustering
// quality as the exact path on well-separated synthetic subspaces, and
// must be deterministic under a fixed seed.
func TestShardedParity(t *testing.T) {
	theta, truth := pooledSamples(t, 40, 3, 4, 24, 2) // 96 pooled samples
	exact := CentralCluster(theta, 96, 4, CentralOptions{}, rand.New(rand.NewSource(3)))
	accExact := metrics.Accuracy(truth, exact.Labels)
	sharded := CentralCluster(theta, 96, 4, CentralOptions{Shards: 4}, rand.New(rand.NewSource(3)))
	accSharded := metrics.Accuracy(truth, sharded.Labels)
	if accSharded < accExact-5 {
		t.Fatalf("sharded accuracy %.1f%% vs exact %.1f%%: beyond tolerance", accSharded, accExact)
	}
	if accSharded < 90 {
		t.Fatalf("sharded accuracy %.1f%% on well-separated subspaces", accSharded)
	}
	again := CentralCluster(theta, 96, 4, CentralOptions{Shards: 4}, rand.New(rand.NewSource(3)))
	if !sameLabels(sharded.Labels, again.Labels) {
		t.Fatalf("sharded labels not deterministic under a fixed seed")
	}
}

// TestSketchedParity: sketching the ambient dimension must preserve the
// clustering (JL preserves the column geometry the solvers consume),
// alone and combined with sharding.
func TestSketchedParity(t *testing.T) {
	theta, truth := pooledSamples(t, 60, 3, 4, 20, 4) // 80 pooled samples, ambient 60
	exact := CentralCluster(theta, 80, 4, CentralOptions{}, rand.New(rand.NewSource(5)))
	accExact := metrics.Accuracy(truth, exact.Labels)
	for _, tc := range []struct {
		name string
		opts CentralOptions
	}{
		{"gaussian", CentralOptions{SketchSize: 24}},
		{"gaussian+shards", CentralOptions{SketchSize: 24, Shards: 4}},
	} {
		got := CentralCluster(theta, 80, 4, tc.opts, rand.New(rand.NewSource(5)))
		acc := metrics.Accuracy(truth, got.Labels)
		if acc < accExact-5 || acc < 90 {
			t.Fatalf("%s: sketched accuracy %.1f%% vs exact %.1f%%", tc.name, acc, accExact)
		}
	}
}

// TestCentralClusterFewerSamplesThanClusters: a round can pool fewer
// samples than there are global clusters (tiny z); the solve must not
// panic and must return one valid label per sample, on the exact and
// sharded configurations alike.
func TestCentralClusterFewerSamplesThanClusters(t *testing.T) {
	theta, _ := pooledSamples(t, 20, 2, 3, 1, 6) // 3 samples, l=5 below
	for _, opts := range []CentralOptions{{}, {Shards: 4}, {Method: CentralTSC, Shards: 4}} {
		res := CentralCluster(theta, 3, 5, opts, rand.New(rand.NewSource(8)))
		if len(res.Labels) != 3 {
			t.Fatalf("%+v: got %d labels for 3 samples", opts, len(res.Labels))
		}
		for i, lab := range res.Labels {
			if lab < 0 || lab >= 5 {
				t.Fatalf("%+v: sample %d labeled %d, outside [0,5)", opts, i, lab)
			}
		}
	}
}

// TestCentralClusterDuplicateSamples: identical pooled columns (as a
// dedup miss on replayed uploads would produce) must never break the
// solve. SSC is only held to structural guarantees here — exact
// duplicates are its known connectivity degeneracy (a point's
// self-expression collapses onto its twin, pairing off the affinity
// graph) — while TSC, whose q-neighbor graph survives duplicates, is
// additionally held to label quality and to cross-shard duplicate
// consistency after the affinity merge.
func TestCentralClusterDuplicateSamples(t *testing.T) {
	base, truth := pooledSamples(t, 30, 3, 3, 10, 9) // 30 distinct samples
	idx := make([]int, 0, 2*base.Cols())
	dupTruth := make([]int, 0, 2*base.Cols())
	for j := 0; j < base.Cols(); j++ {
		idx = append(idx, j, j)
		dupTruth = append(dupTruth, truth[j], truth[j])
	}
	theta := base.SelectCols(idx)
	for _, opts := range []CentralOptions{
		{}, {Shards: 2},
		{Method: CentralTSC}, {Method: CentralTSC, Shards: 2},
	} {
		res := CentralCluster(theta, 60, 3, opts, rand.New(rand.NewSource(10)))
		if len(res.Labels) != theta.Cols() {
			t.Fatalf("%+v: got %d labels for %d samples", opts, len(res.Labels), theta.Cols())
		}
		for i, lab := range res.Labels {
			if lab < 0 || lab >= 3 {
				t.Fatalf("%+v: sample %d labeled %d, outside [0,3)", opts, i, lab)
			}
		}
		if opts.Method != CentralTSC {
			continue
		}
		if acc := metrics.Accuracy(dupTruth, res.Labels); acc < 90 {
			t.Fatalf("%+v: accuracy %.1f%% with duplicated pooled samples", opts, acc)
		}
		disagree := 0
		for j := 0; j < base.Cols(); j++ {
			if res.Labels[2*j] != res.Labels[2*j+1] {
				disagree++
			}
		}
		if disagree > base.Cols()/10 {
			t.Fatalf("%+v: %d/%d duplicate pairs split across labels", opts, disagree, base.Cols())
		}
	}
}

// TestRunShardedEndToEnd: the full pipeline with sharding + sketching
// enabled stays within tolerance of the exact run, and the shard knobs
// survive the Options plumbing (Run → aggregate → centralCluster).
func TestRunShardedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const l = 4
	s := synth.RandomSubspaces(40, 3, l, rng)
	devices := make([]*mat.Dense, 48)
	truth := make([][]int, len(devices))
	for dev := range devices {
		clusters := rng.Perm(l)[:2]
		counts := make([]int, l)
		for _, c := range clusters {
			counts[c] = 10
		}
		ds := s.SampleCounts(counts, rng)
		devices[dev] = ds.X
		truth[dev] = ds.Labels
	}
	flat := FlattenLabels(truth)
	exact := Run(devices, l, Options{Local: LocalOptions{UseEigengap: true}},
		rand.New(rand.NewSource(12)))
	sharded := Run(devices, l, Options{
		Local:   LocalOptions{UseEigengap: true},
		Central: CentralOptions{Shards: 3, SketchSize: 24},
	}, rand.New(rand.NewSource(12)))
	accExact := metrics.Accuracy(flat, FlattenLabels(exact.Labels))
	accSharded := metrics.Accuracy(flat, FlattenLabels(sharded.Labels))
	if accSharded < accExact-5 {
		t.Fatalf("sharded end-to-end accuracy %.1f%% vs exact %.1f%%", accSharded, accExact)
	}
}
