package subspace

import (
	"math/rand"
	"testing"

	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

// testData draws the paper's synthetic model: L subspaces of dimension d
// in R^n with perSub unit-norm points each.
func testData(n, d, l, perSub int, seed int64) (synth.Dataset, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(n, d, l, rng)
	return s.Sample(perSub, rng), rng
}

func TestSSCRecoversCleanSubspaces(t *testing.T) {
	ds, rng := testData(20, 3, 4, 25, 100)
	res := SSC(ds.X, 4, rng, SSCOptions{})
	if acc := metrics.Accuracy(ds.Labels, res.Labels); acc < 95 {
		t.Fatalf("SSC accuracy %.1f%% < 95%%", acc)
	}
}

func TestSSCAffinitySatisfiesSEPOnWellSeparatedData(t *testing.T) {
	// Low-dimensional subspaces in a roomy ambient space: SSC theory
	// predicts no false connections.
	ds, rng := testData(30, 2, 3, 20, 101)
	res := SSC(ds.X, 3, rng, SSCOptions{})
	if !metrics.SEPHolds(res.Affinity, ds.Labels) {
		t.Fatal("SSC affinity has false connections on well-separated data")
	}
}

func TestSSCCoefficientsSelfExcluded(t *testing.T) {
	ds, _ := testData(15, 3, 2, 10, 102)
	coef := SSCCoefficients(ds.X, SSCOptions{})
	for i, c := range coef {
		if c[i] != 0 {
			t.Fatalf("c[%d][%d] = %v, self-expression must exclude self", i, i, c[i])
		}
	}
}

func TestSSCNoisyData(t *testing.T) {
	ds, rng := testData(20, 3, 3, 30, 103)
	noisy := ds.AddNoise(0.1, rng)
	res := SSC(noisy.X, 3, rng, SSCOptions{})
	if acc := metrics.Accuracy(noisy.Labels, res.Labels); acc < 85 {
		t.Fatalf("SSC accuracy on noisy data %.1f%% < 85%%", acc)
	}
}

func TestSSCADMMSolverMatchesLARS(t *testing.T) {
	ds, rng := testData(20, 3, 3, 20, 113)
	lars := SSC(ds.X, 3, rng, SSCOptions{Which: SolverLARS})
	admm := SSC(ds.X, 3, rng, SSCOptions{Which: SolverADMM})
	accLARS := metrics.Accuracy(ds.Labels, lars.Labels)
	accADMM := metrics.Accuracy(ds.Labels, admm.Labels)
	if accLARS < 95 || accADMM < 95 {
		t.Fatalf("solver accuracies LARS=%.1f ADMM=%.1f", accLARS, accADMM)
	}
}

func TestTSCRecoversCleanSubspaces(t *testing.T) {
	ds, rng := testData(20, 3, 4, 40, 104)
	res := TSC(ds.X, 4, rng, TSCOptions{Q: 5})
	if acc := metrics.Accuracy(ds.Labels, res.Labels); acc < 90 {
		t.Fatalf("TSC accuracy %.1f%% < 90%%", acc)
	}
}

func TestTSCDefaultQ(t *testing.T) {
	ds, rng := testData(20, 3, 3, 30, 105)
	res := TSC(ds.X, 3, rng, TSCOptions{})
	if len(res.Labels) != ds.N() {
		t.Fatal("TSC returned wrong label count")
	}
}

func TestTSCAffinityDegree(t *testing.T) {
	ds, _ := testData(10, 2, 2, 15, 106)
	w := TSCAffinity(ds.X, 4)
	// Every vertex has at least q neighbors (symmetric growth can add more).
	for i := 0; i < ds.N(); i++ {
		deg := 0
		w.Row(i, func(j int, v float64) { deg++ })
		if deg < 4 {
			t.Fatalf("vertex %d has degree %d < q=4", i, deg)
		}
	}
}

func TestSSCOMPRecoversCleanSubspaces(t *testing.T) {
	ds, rng := testData(20, 3, 4, 25, 107)
	res := SSCOMP(ds.X, 4, rng, OMPOptions{KMax: 3})
	if acc := metrics.Accuracy(ds.Labels, res.Labels); acc < 90 {
		t.Fatalf("SSC-OMP accuracy %.1f%% < 90%%", acc)
	}
}

func TestEnSCRecoversCleanSubspaces(t *testing.T) {
	ds, rng := testData(20, 3, 4, 25, 108)
	res := EnSC(ds.X, 4, rng, EnSCOptions{})
	if acc := metrics.Accuracy(ds.Labels, res.Labels); acc < 90 {
		t.Fatalf("EnSC accuracy %.1f%% < 90%%", acc)
	}
}

func TestNSNRecoversCleanSubspaces(t *testing.T) {
	ds, rng := testData(20, 3, 4, 25, 109)
	res := NSN(ds.X, 4, rng, NSNOptions{MaxDim: 3, Neighbors: 6})
	if acc := metrics.Accuracy(ds.Labels, res.Labels); acc < 85 {
		t.Fatalf("NSN accuracy %.1f%% < 85%%", acc)
	}
}

func TestClusterDispatch(t *testing.T) {
	ds, rng := testData(15, 2, 2, 12, 110)
	for _, m := range Methods() {
		res := Cluster(m, ds.X, 2, rng)
		if len(res.Labels) != ds.N() {
			t.Fatalf("%s: wrong label count", m)
		}
		if res.Affinity == nil {
			t.Fatalf("%s: nil affinity", m)
		}
	}
}

func TestClusterDispatchUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown method")
		}
	}()
	rng := rand.New(rand.NewSource(111))
	Cluster(Method("nope"), mat.NewDense(3, 3), 2, rng)
}

func TestNormalizedIsNoopForUnitColumns(t *testing.T) {
	ds, _ := testData(10, 2, 2, 5, 112)
	if got := normalized(ds.X); got != ds.X {
		t.Fatal("normalized should return the input when already unit-norm")
	}
	scaled := ds.X.Clone()
	scaled.Scale(2)
	if got := normalized(scaled); got == scaled {
		t.Fatal("normalized must copy when columns are not unit-norm")
	}
}

func TestAffinityFromCoefSymmetric(t *testing.T) {
	coef := [][]float64{
		{0, 0.5, 0},
		{-0.2, 0, 0},
		{0, 1e-12, 0}, // below drop tolerance
	}
	w := affinityFromCoef(coef, 1e-8)
	if w.At(0, 1) != w.At(1, 0) {
		t.Fatal("affinity not symmetric")
	}
	if w.At(0, 1) != 0.7 { // |0.5| + |-0.2|
		t.Fatalf("W(0,1) = %v want 0.7", w.At(0, 1))
	}
	if w.At(2, 1) != 0 {
		t.Fatal("sub-tolerance entry should be dropped")
	}
}
