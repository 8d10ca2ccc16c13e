package core

import (
	"math/rand"
	"testing"

	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

// noisyRoundAccuracy runs one Fed-SC round at the serve-assign shape —
// 96 devices, each holding 20 points from each of 2 of 16
// four-dimensional subspaces of R^64 — with every point perturbed by
// synth.AddNoise at sigma, and returns the round's accuracy.
func noisyRoundAccuracy(sigma float64, local LocalOptions, seed int64) float64 {
	const l, z, lPrime, per = 16, 96, 2, 20
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(64, 4, l, rng)
	devices := make([]*mat.Dense, z)
	truth := make([][]int, z)
	for dev := range devices {
		counts := make([]int, l)
		for _, c := range rng.Perm(l)[:lPrime] {
			counts[c] = per
		}
		ds := s.SampleCounts(counts, rng).AddNoise(sigma, rng)
		devices[dev], truth[dev] = ds.X, ds.Labels
	}
	res := Run(devices, l, Options{Local: local}, rng)
	return metrics.Accuracy(FlattenLabels(truth), FlattenLabels(res.Labels))
}

// TestRemark1NoiseCliff pins where the eigengap estimate of r⁽ᶻ⁾ breaks
// under noise (Remark 1 of the paper). At σ = 0.03 the per-device
// Laplacian keeps a clean two-eigenvalue band and the round is exact;
// by σ = 0.05 weak false connections lift that band into the bulk, the
// estimate drifts off r = 2 and the round collapses — while the same
// data clustered at the known r (RMax: 2) is still recovered. Any
// change to Phase 1's spectral path must leave all three sides of the
// cliff where they are.
func TestRemark1NoiseCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("three 96-device rounds")
	}
	const seed = 1
	if acc := noisyRoundAccuracy(0.03, LocalOptions{UseEigengap: true}, seed); acc < 99 {
		t.Errorf("eigengap at σ=0.03: accuracy %.1f%% < 99%%", acc)
	}
	if acc := noisyRoundAccuracy(0.05, LocalOptions{UseEigengap: true}, seed); acc > 50 {
		t.Errorf("eigengap at σ=0.05: accuracy %.1f%% > 50%%: the noise cliff moved", acc)
	}
	if acc := noisyRoundAccuracy(0.05, LocalOptions{RMax: 2}, seed); acc < 95 {
		t.Errorf("RMax 2 at σ=0.05: accuracy %.1f%% < 95%%", acc)
	}
}
