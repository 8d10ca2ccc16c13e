package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
	"fedsc/internal/theory"
)

// fedData builds the paper's synthetic federated setting: L subspaces of
// dimension d in R^n, perCluster points per subspace per holding device,
// Non-IID partition with L' clusters per device.
func fedData(n, d, l, z, lPrime, perDevCluster int, seed int64) ([]*mat.Dense, [][]int, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(n, d, l, rng)
	devices := make([]*mat.Dense, z)
	truth := make([][]int, z)
	for dev := 0; dev < z; dev++ {
		clusters := rng.Perm(l)[:lPrime]
		counts := make([]int, l)
		for _, c := range clusters {
			counts[c] = perDevCluster
		}
		ds := s.SampleCounts(counts, rng)
		devices[dev] = ds.X
		truth[dev] = ds.Labels
	}
	return devices, truth, rng
}

func TestLocalClusterAndSampleBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	s := synth.RandomSubspaces(20, 3, 2, rng)
	ds := s.Sample(15, rng) // 2 clusters, 15 points each
	lr := LocalClusterAndSample(ds.X, LocalOptions{UseEigengap: true}, rng)
	if lr.R() != 2 {
		t.Fatalf("r = %d want 2 (eigengap)", lr.R())
	}
	if lr.Samples.Cols() != 2 {
		t.Fatalf("samples = %d want 2", lr.Samples.Cols())
	}
	// Partitions cover all points exactly once.
	seen := make([]bool, ds.N())
	for _, p := range lr.Partitions {
		for _, i := range p {
			if seen[i] {
				t.Fatal("point in two partitions")
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d missing from partitions", i)
		}
	}
	// Each partition is pure (one true subspace) on clean data.
	for _, p := range lr.Partitions {
		lab := ds.Labels[p[0]]
		for _, i := range p {
			if ds.Labels[i] != lab {
				t.Fatal("mixed partition on clean well-separated data")
			}
		}
	}
	// Estimated dimensions match the generator.
	for t2, d := range lr.Dims {
		if d != 3 {
			t.Fatalf("cluster %d estimated dim %d want 3", t2, d)
		}
	}
}

func TestLocalSamplesLieOnClusterSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	s := synth.RandomSubspaces(15, 2, 2, rng)
	ds := s.Sample(12, rng)
	lr := LocalClusterAndSample(ds.X, LocalOptions{UseEigengap: true}, rng)
	col := make([]float64, 15)
	for t2 := 0; t2 < lr.R(); t2++ {
		lr.Samples.Col(t2, col)
		if math.Abs(mat.Norm2(col)-1) > 1e-9 {
			t.Fatalf("sample %d not unit norm", t2)
		}
		// The sample must lie in the true subspace of its partition.
		trueL := ds.Labels[lr.Partitions[t2][0]]
		b := s.Bases[trueL]
		proj := mat.MulVec(b, mat.MulTVec(b, col))
		for i := range col {
			if math.Abs(proj[i]-col[i]) > 1e-6 {
				t.Fatalf("sample %d leaves its subspace", t2)
			}
		}
	}
}

func TestLocalFixedRAndTargetDim(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	s := synth.RandomSubspaces(20, 3, 3, rng)
	ds := s.Sample(10, rng)
	lr := LocalClusterAndSample(ds.X, LocalOptions{RMax: 3, UseEigengap: false, TargetDim: 1}, rng)
	if lr.R() != 3 {
		t.Fatalf("fixed r = %d want 3", lr.R())
	}
	for _, d := range lr.Dims {
		if d != 1 {
			t.Fatalf("target dim not honored: %d", d)
		}
	}
}

func TestLocalEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	empty := LocalClusterAndSample(mat.NewDense(5, 0), LocalOptions{UseEigengap: true}, rng)
	if empty.R() != 0 || empty.Samples.Cols() != 0 {
		t.Fatal("empty device should produce no partitions or samples")
	}
	one := mat.RandomGaussian(5, 1, rng)
	mat.NormalizeColumns(one)
	single := LocalClusterAndSample(one, LocalOptions{UseEigengap: true}, rng)
	if single.R() != 1 || single.Samples.Cols() != 1 {
		t.Fatalf("single point: r=%d samples=%d", single.R(), single.Samples.Cols())
	}
	// With d_t = 1 the sample from a single point is ± the point itself.
	col := single.Samples.Col(0, nil)
	dot := math.Abs(mat.Dot(col, one.Col(0, nil)))
	if math.Abs(dot-1) > 1e-9 {
		t.Fatalf("single-point sample should be ± the point, |dot|=%v", dot)
	}
}

func TestRunRecoversFederatedSubspaces(t *testing.T) {
	// Z_ℓ = Z·L′/L = 10 samples per subspace at the server, comfortably
	// above the d+1 = 4 the central SSC needs.
	devices, truth, rng := fedData(20, 3, 6, 30, 2, 8, 144)
	res := Run(devices, 6, Options{Local: LocalOptions{UseEigengap: true}}, rng)
	acc := metrics.Accuracy(FlattenLabels(truth), FlattenLabels(res.Labels))
	if acc < 95 {
		t.Fatalf("Fed-SC (SSC) accuracy %.1f%% < 95%%", acc)
	}
}

func TestRunTSCCentral(t *testing.T) {
	// TSC at the server needs enough samples per subspace: many devices.
	devices, truth, rng := fedData(20, 3, 4, 24, 2, 8, 145)
	res := Run(devices, 4, Options{
		Local:   LocalOptions{UseEigengap: true},
		Central: CentralOptions{Method: CentralTSC},
	}, rng)
	acc := metrics.Accuracy(FlattenLabels(truth), FlattenLabels(res.Labels))
	if acc < 90 {
		t.Fatalf("Fed-SC (TSC) accuracy %.1f%% < 90%%", acc)
	}
}

func TestRunCommunicationAccounting(t *testing.T) {
	devices, _, rng := fedData(20, 3, 4, 6, 2, 8, 146)
	res := Run(devices, 4, Options{Local: LocalOptions{UseEigengap: true}}, rng)
	sumR := 0
	for _, r := range res.RPerDevice {
		sumR += r
	}
	wantUp := int64(20) * 32 * int64(sumR)
	if res.UplinkBits != wantUp {
		t.Fatalf("UplinkBits = %d want %d", res.UplinkBits, wantUp)
	}
	wantDown := int64(sumR) * 2 // ceil(log2 4) = 2
	if res.DownlinkBits != wantDown {
		t.Fatalf("DownlinkBits = %d want %d", res.DownlinkBits, wantDown)
	}
	if res.SequentialTime < res.ParallelTime {
		t.Fatal("sequential time cannot beat parallel time")
	}
}

func TestRunWithChannelNoiseStillClusters(t *testing.T) {
	devices, truth, rng := fedData(20, 3, 4, 20, 2, 8, 147)
	res := Run(devices, 4, Options{
		Local:      LocalOptions{UseEigengap: true},
		NoiseDelta: 0.01,
	}, rng)
	acc := metrics.Accuracy(FlattenLabels(truth), FlattenLabels(res.Labels))
	if acc < 85 {
		t.Fatalf("Fed-SC under light channel noise: accuracy %.1f%%", acc)
	}
}

func TestRunMultipleSamplesPerCluster(t *testing.T) {
	devices, truth, rng := fedData(20, 3, 4, 10, 2, 8, 148)
	res := Run(devices, 4, Options{
		Local: LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
	}, rng)
	acc := metrics.Accuracy(FlattenLabels(truth), FlattenLabels(res.Labels))
	if acc < 95 {
		t.Fatalf("redundant sampling accuracy %.1f%%", acc)
	}
	sumR := 0
	for _, r := range res.RPerDevice {
		sumR += r
	}
	if res.UplinkBits != int64(20)*32*int64(sumR*3) {
		t.Fatal("uplink accounting must include sample redundancy")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	devices, _, _ := fedData(20, 3, 4, 8, 2, 8, 149)
	r1 := Run(devices, 4, Options{Local: LocalOptions{UseEigengap: true}}, rand.New(rand.NewSource(5)))
	r2 := Run(devices, 4, Options{Local: LocalOptions{UseEigengap: true}}, rand.New(rand.NewSource(5)))
	a, b := FlattenLabels(r1.Labels), FlattenLabels(r2.Labels)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical results")
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 100: 7}
	for l, want := range cases {
		if got := bitsFor(l); got != want {
			t.Fatalf("bitsFor(%d) = %d want %d", l, got, want)
		}
	}
}

func TestAggregatePanicsOnUnknownCentral(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rng := rand.New(rand.NewSource(150))
	devices := []*mat.Dense{mat.RandomGaussian(4, 3, rng)}
	locals := []LocalResult{LocalClusterAndSample(devices[0], LocalOptions{UseEigengap: true}, rng)}
	Aggregate(devices, locals, 2, Options{Central: CentralOptions{Method: "bogus"}}, rng)
}

func TestFlattenLabelsEdgeCases(t *testing.T) {
	// Zero devices.
	if got := FlattenLabels(nil); len(got) != 0 {
		t.Fatalf("FlattenLabels(nil) = %v", got)
	}
	if got := FlattenLabels([][]int{}); len(got) != 0 {
		t.Fatalf("FlattenLabels(empty) = %v", got)
	}
	// A device with zero points contributes nothing but must not shift
	// its neighbors.
	got := FlattenLabels([][]int{{1, 2}, {}, {3}})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("FlattenLabels = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FlattenLabels = %v want %v", got, want)
		}
	}
}

// TestRunDistributedBasesRefinement pins the dsvd-refined export path:
// with Options.DistributedBases each global cluster's basis must match
// the truncated SVD of the cluster's pooled raw columns — the matrix
// the distributed solve never materializes in one place — to
// principal-angle cosine >= 0.999, stay orthonormal, and replay
// bit-identically for a fixed seed.
func TestRunDistributedBasesRefinement(t *testing.T) {
	const l = 4
	run := func() Result {
		devices, _, _ := fedData(20, 3, l, 12, 2, 8, 150)
		return Run(devices, l, Options{Local: LocalOptions{UseEigengap: true}, DistributedBases: true},
			rand.New(rand.NewSource(6)))
	}
	devices, _, _ := fedData(20, 3, l, 12, 2, 8, 150)
	res := run()
	refined := 0
	for g := 0; g < l; g++ {
		basis := res.GlobalBases[g]
		k := basis.Cols()
		if k == 0 {
			continue
		}
		refined++
		gram := mat.MulTA(basis, basis)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(gram.At(i, j)-want) > 1e-9 {
					t.Fatalf("cluster %d basis not orthonormal at %d,%d: %g", g, i, j, gram.At(i, j))
				}
			}
		}
		var parts []*mat.Dense
		for dev := range devices {
			var idx []int
			for i, lab := range res.Labels[dev] {
				if lab == g {
					idx = append(idx, i)
				}
			}
			if len(idx) > 0 {
				parts = append(parts, devices[dev].SelectCols(idx))
			}
		}
		central, _ := mat.TruncatedSVD(mat.HStack(parts...), k)
		for _, c := range theory.PrincipalAngles(basis, central) {
			if c < 0.999 {
				t.Fatalf("cluster %d refined basis drifts from centralized SVD: cosines %v",
					g, theory.PrincipalAngles(basis, central))
			}
		}
	}
	if refined == 0 {
		t.Fatal("no cluster produced a refinable basis")
	}
	replay := run()
	for g := 0; g < l; g++ {
		if !reflect.DeepEqual(res.GlobalBases[g].Data(), replay.GlobalBases[g].Data()) {
			t.Fatalf("cluster %d refined basis not bit-identical across seeded replays", g)
		}
	}
}

// TestLocalBasesAreClusterSVDs pins the basis reuse fleet relies on: on
// the eigengap, fixed-r and TargetDim paths, LocalResult.Bases[t] is bit
// for bit the truncated SVD of cluster t's member columns at Dims[t].
// The shapes cover the randomized range finder (40×30 clusters), the
// exact Gram path whose eigendecomposition also chose d (20×15, the
// round-local shape), and a wide cluster (8×15) with more columns than
// rows.
func TestLocalBasesAreClusterSVDs(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	sample := func(n, d, l, per int) *mat.Dense {
		return synth.RandomSubspaces(n, d, l, rng).Sample(per, rng).X
	}
	tall, roundLocal, wide := sample(40, 3, 3, 30), sample(20, 5, 2, 15), sample(8, 2, 3, 15)
	for _, tc := range []struct {
		name string
		x    *mat.Dense
		opts LocalOptions
	}{
		{"eigengap", tall, LocalOptions{UseEigengap: true}},
		{"fixed r", tall, LocalOptions{RMax: 3}},
		{"target dim", tall, LocalOptions{RMax: 3, TargetDim: 1, SamplesPerCluster: 2}},
		{"eigengap, round-local shape", roundLocal, LocalOptions{UseEigengap: true}},
		{"fixed r, wide clusters", wide, LocalOptions{RMax: 3}},
	} {
		x := tc.x
		lr := LocalClusterAndSample(x, tc.opts, rand.New(rand.NewSource(161)))
		if len(lr.Bases) != lr.R() {
			t.Fatalf("%s: %d bases for %d clusters", tc.name, len(lr.Bases), lr.R())
		}
		for c, idx := range lr.Partitions {
			want, _ := mat.TruncatedSVD(x.SelectCols(idx), lr.Dims[c])
			got := lr.Bases[c]
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("%s: cluster %d basis is %dx%d, want %dx%d", tc.name, c, got.Rows(), got.Cols(), want.Rows(), want.Cols())
			}
			for i, v := range want.Data() {
				if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
					t.Fatalf("%s: cluster %d basis differs from its truncated SVD at %d", tc.name, c, i)
				}
			}
		}
	}
}

// TestClusterDimMatchesJacobiSpectrum checks that d read off the Gram
// eigendecomposition equals d read off the Jacobi singular values, on
// exact-rank clusters, noisy ones (σ = 0.01 and 0.05) and rank-deficient
// ones (fewer directions than points, duplicated and zero columns), tall
// and wide.
func TestClusterDimMatchesJacobiSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	for _, tc := range []struct {
		name       string
		n, d, pts  int
		sigma      float64
		duplicates bool
	}{
		{"exact 20×15 rank 5", 20, 5, 15, 0, false},
		{"exact 64×20 rank 4", 64, 4, 20, 0, false},
		{"exact wide 8×15 rank 3", 8, 3, 15, 0, false},
		{"σ=0.01 20×15", 20, 5, 15, 0.01, false},
		{"σ=0.05 20×15", 20, 5, 15, 0.05, false},
		{"σ=0.01 64×20", 64, 4, 20, 0.01, false},
		{"σ=0.05 64×20", 64, 4, 20, 0.05, false},
		{"σ=0.05 wide 8×15", 8, 3, 15, 0.05, false},
		{"rank-deficient 20×15 with repeats", 20, 2, 15, 0, true},
		{"rank-deficient 64×20 rank 1", 64, 1, 20, 0, true},
	} {
		for trial := 0; trial < 20; trial++ {
			ds := synth.RandomSubspaces(tc.n, tc.d, 1, rng).Sample(tc.pts, rng)
			if tc.sigma > 0 {
				ds = ds.AddNoise(tc.sigma, rng)
			}
			sub := ds.X
			if tc.duplicates {
				col := sub.Col(0, nil)
				sub.SetCol(1, col)
				sub.SetCol(2, col)
				sub.SetCol(3, make([]float64, tc.n))
			}
			maxDim := min(tc.n, tc.pts)
			want := dimFromSpectrum(mat.SingularValues(sub), maxDim)
			if _, got := clusterBasis(sub, 0); got != want {
				t.Fatalf("%s, trial %d: d=%d from the Gram spectrum, %d from Jacobi", tc.name, trial, got, want)
			}
		}
	}
}

func TestVote(t *testing.T) {
	for _, tc := range []struct {
		labels []int
		want   int
	}{
		{nil, 0},
		{[]int{4}, 4},
		{[]int{3, 1, 3}, 3},
		{[]int{1, 0, 1, 0}, 0}, // a tie goes to the lowest label
		{[]int{2, 2, 5, 1, 1, 1}, 1},
	} {
		if got := Vote(tc.labels); got != tc.want {
			t.Fatalf("Vote(%v) = %d, want %d", tc.labels, got, tc.want)
		}
	}
}
