package core_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/synth"
)

// runSynthetic executes Fed-SC on a clean synthetic union of subspaces
// and returns the devices, the run result, and the cluster count.
func runSynthetic(t testing.TB, seed int64) ([]*mat.Dense, core.Result, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, d, l, z, lPrime, per = 20, 3, 4, 16, 2, 8
	s := synth.RandomSubspaces(n, d, l, rng)
	devices := make([]*mat.Dense, z)
	for dev := 0; dev < z; dev++ {
		clusters := rng.Perm(l)[:lPrime]
		counts := make([]int, l)
		for _, c := range clusters {
			counts[c] = per
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	res := core.Run(devices, l, core.Options{Local: core.LocalOptions{UseEigengap: true}}, rng)
	return devices, res, l
}

func TestAggregateExposesGlobalBases(t *testing.T) {
	devices, res, l := runSynthetic(t, 41)
	if len(res.GlobalBases) != l || len(res.GlobalDims) != l {
		t.Fatalf("got %d bases / %d dims, want %d", len(res.GlobalBases), len(res.GlobalDims), l)
	}
	n := devices[0].Rows()
	for g, u := range res.GlobalBases {
		if u.Rows() != n {
			t.Fatalf("basis %d lives in %d dims, want %d", g, u.Rows(), n)
		}
		if u.Cols() != res.GlobalDims[g] {
			t.Fatalf("basis %d has %d cols, dims says %d", g, u.Cols(), res.GlobalDims[g])
		}
		// Orthonormality: UᵀU = I.
		gram := mat.MulTA(u, u)
		if !mat.Equalish(gram, mat.Identity(u.Cols()), 1e-8) {
			t.Fatalf("basis %d is not orthonormal", g)
		}
	}
	// Every training point must be closest (minimum projection residual)
	// to the basis of its own assigned cluster: the bases and labels came
	// from the same round on clean data.
	for dev, x := range devices {
		norms := mat.ColNormsSq(x)
		best := make([]int, x.Cols())
		bestRes := make([]float64, x.Cols())
		for j := range bestRes {
			bestRes[j] = math.Inf(1)
		}
		for g, u := range res.GlobalBases {
			r := mat.ResidualsSq(u, x, norms)
			for j, v := range r {
				if v < bestRes[j] {
					bestRes[j], best[j] = v, g
				}
			}
		}
		for j, g := range best {
			if g != res.Labels[dev][j] {
				t.Fatalf("device %d point %d: residual rule says %d, round said %d", dev, j, g, res.Labels[dev][j])
			}
		}
	}
}

func TestModelEncodeDecodeRoundTrip(t *testing.T) {
	_, res, l := runSynthetic(t, 42)
	m, err := core.ModelFromResult(res, l, 0, core.CentralSSC)
	if err != nil {
		t.Fatalf("ModelFromResult: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh model invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := core.DecodeModel(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Ambient != m.Ambient || got.L != m.L || got.Method != m.Method {
		t.Fatalf("metadata changed in round trip: %+v vs %+v", got, m)
	}
	if got.Checksum != m.Checksum {
		t.Fatal("checksum changed in round trip")
	}
	a, b := m.Bases(), got.Bases()
	for g := range a {
		if !mat.Equalish(a[g], b[g], 0) {
			t.Fatalf("basis %d changed in round trip", g)
		}
	}
}

func TestDecodeModelRejectsFutureVersion(t *testing.T) {
	_, res, l := runSynthetic(t, 44)
	m, err := core.ModelFromResult(res, l, 0, core.CentralSSC)
	if err != nil {
		t.Fatalf("ModelFromResult: %v", err)
	}
	m.Version = core.ModelVersion + 1
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := core.DecodeModel(&buf); err == nil {
		t.Fatal("future-version artifact accepted")
	}
}

func TestBuildModelValidatesInputs(t *testing.T) {
	theta := mat.NewDense(4, 3)
	if _, err := core.BuildModel(theta, []int{0, 1}, 2, 0, core.CentralSSC); err == nil {
		t.Fatal("label/sample mismatch accepted")
	}
	if _, err := core.BuildModel(theta, []int{0, 1, 0}, 0, 0, core.CentralSSC); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := core.BuildModel(mat.NewDense(0, 0), nil, 2, 0, core.CentralSSC); err == nil {
		t.Fatal("empty sample matrix accepted")
	}
}

func TestGlobalBasesEmptyCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	theta := mat.RandomGaussian(6, 4, rng)
	// Label every sample into cluster 0 of 3: clusters 1 and 2 are empty.
	bases, dims := core.GlobalBases(theta, []int{0, 0, 0, 0}, 3, 0)
	if len(bases) != 3 {
		t.Fatalf("got %d bases", len(bases))
	}
	for g := 1; g < 3; g++ {
		if bases[g].Cols() != 0 || dims[g] != 0 {
			t.Fatalf("empty cluster %d got a %d-dim basis", g, bases[g].Cols())
		}
	}
	if bases[0].Cols() == 0 {
		t.Fatal("populated cluster got an empty basis")
	}
}
