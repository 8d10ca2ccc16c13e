package experiments

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fedsc/internal/core"
	"fedsc/internal/metrics"
)

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "bb") {
		t.Fatalf("rendered table missing pieces:\n%s", s)
	}
	tsv := tab.TSV()
	if tsv != "a\tbb\n1\t2\n" {
		t.Fatalf("TSV = %q", tsv)
	}
}

func TestChartRendering(t *testing.T) {
	line := Table{Title: "acc vs Z", Header: []string{"Z", "Fed-SC", "k-FED"}}
	line.AddRow("100", "80.0", "20.0")
	line.AddRow("200", "90.0", "15.0")
	out := line.Chart()
	if !strings.Contains(out, "Fed-SC") || !strings.Contains(out, "k-FED") {
		t.Fatalf("line chart missing legend:\n%s", out)
	}
	heat := Table{Title: "Fig. 5 — accuracy heatmap", Header: []string{"L", "0.1", "0.5"}}
	heat.AddRow("10", "90.0", "50.0")
	out = heat.Chart()
	if !strings.Contains(out, "scale:") {
		t.Fatalf("heatmap missing scale:\n%s", out)
	}
	// Non-numeric tables render nothing.
	text := Table{Title: "t", Header: []string{"a", "b"}}
	text.AddRow("x", "not-a-number")
	if text.Chart() != "" {
		t.Fatal("non-numeric table should not chart")
	}
	// Ragged rows render nothing rather than panicking.
	ragged := Table{Title: "t", Header: []string{"a", "b"}}
	ragged.Rows = append(ragged.Rows, []string{"only-one"})
	if ragged.Chart() != "" {
		t.Fatal("ragged table should not chart")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "paper", ""} {
		if _, ok := ScaleByName(name); !ok {
			t.Fatalf("scale %q not found", name)
		}
	}
	if _, ok := ScaleByName("bogus"); ok {
		t.Fatal("bogus scale resolved")
	}
}

func TestSyntheticInstanceShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	inst := syntheticInstance(20, 3, 6, 9, 2, 24, rng)
	if len(inst.Devices) != 9 || inst.L != 6 || inst.MaxLPrime != 2 {
		t.Fatalf("instance meta wrong: %+v", inst)
	}
	for dev, x := range inst.Devices {
		if x.Cols() != 24 {
			t.Fatalf("device %d has %d points", dev, x.Cols())
		}
		seen := map[int]bool{}
		for _, l := range inst.Truth[dev] {
			seen[l] = true
		}
		if len(seen) != 2 {
			t.Fatalf("device %d sees %d clusters, want 2", dev, len(seen))
		}
	}
	if inst.TotalPoints() != 9*24 {
		t.Fatalf("TotalPoints = %d", inst.TotalPoints())
	}
	x, labels := inst.Pooled()
	if x.Cols() != len(labels) || x.Cols() != 9*24 {
		t.Fatal("Pooled shapes wrong")
	}
}

func TestInducedGlobalAffinityConnectsClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	inst := syntheticInstance(20, 3, 4, 16, 2, 24, rng)
	res := core.Run(inst.Devices, inst.L, core.Options{
		Local: core.LocalOptions{UseEigengap: true},
	}, rng)
	w := InducedGlobalAffinity(inst, res)
	n, _ := w.Dims()
	if n != inst.TotalPoints() {
		t.Fatalf("induced graph over %d vertices, want %d", n, inst.TotalPoints())
	}
	truth := inst.FlatTruth()
	// On clean data the induced graph should have decent connectivity:
	// every truth cluster internally connected in most runs.
	_, avg := metrics.Connectivity(w, truth, rng)
	if avg <= 0 {
		t.Fatalf("induced affinity disconnects the truth clusters (avg λ2 = %v)", avg)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, ok := Run("nope", QuickScale()); ok {
		t.Fatal("unknown experiment resolved")
	}
	if testing.Short() {
		t.Skip("sweeps every remaining experiment at quick scale")
	}
	for _, name := range All() {
		switch name {
		case NameFig6, NameTable3, NameTable4, NamePrivacy, NameQuant, NameTheory, NameScaling:
			continue // covered by the slower dedicated tests below
		}
		tabs, ok := Run(name, QuickScale())
		if !ok || len(tabs) == 0 {
			t.Fatalf("experiment %s returned nothing", name)
		}
		for _, tab := range tabs {
			if len(tab.Rows) == 0 {
				t.Fatalf("experiment %s table %q has no rows", name, tab.Title)
			}
		}
	}
}

func TestFig4ShapeFedSCBeatsKFED(t *testing.T) {
	tabs := Fig4(QuickScale())
	if len(tabs) != 3 {
		t.Fatalf("Fig4 should return 3 partitions, got %d", len(tabs))
	}
	// In the Non-IID-2 table (last), Fed-SC(SSC) accuracy must beat k-FED
	// at the largest Z — the paper's headline comparison.
	nonIID2 := tabs[2]
	last := nonIID2.Rows[len(nonIID2.Rows)-1]
	fedACC := mustFloat(t, last[1])
	kfedACC := mustFloat(t, last[5])
	if fedACC <= kfedACC {
		t.Fatalf("Fed-SC(SSC) %.1f should beat k-FED %.1f on subspace data", fedACC, kfedACC)
	}
	if fedACC < 80 {
		t.Fatalf("Fed-SC(SSC) accuracy %.1f unexpectedly low on Non-IID-2", fedACC)
	}
}

func TestFig7NoiseDegradesGracefully(t *testing.T) {
	// Fig. 7's claim: for both central methods and every Z, accuracy
	// never rises as the channel noise δ grows, and the noise-free row
	// stands at least 20 points above the noisiest.
	for _, tab := range Fig7(QuickScale()) {
		for col := 1; col < len(tab.Header); col++ {
			prev := mustFloat(t, tab.Rows[0][col])
			clean := prev
			for _, row := range tab.Rows[1:] {
				acc := mustFloat(t, row[col])
				if acc > prev {
					t.Errorf("%s, Z=%s: accuracy rises from %.1f to %.1f at δ=%s", tab.Title, tab.Header[col], prev, acc, row[0])
				}
				prev = acc
			}
			if clean < prev+20 {
				t.Errorf("%s, Z=%s: noise-free accuracy %.1f is not 20 points above the noisiest %.1f", tab.Title, tab.Header[col], clean, prev)
			}
		}
	}
}

func TestCommAccountingOrdersSchemes(t *testing.T) {
	tabs := Comm(QuickScale())
	for _, row := range tabs[0].Rows {
		up := mustFloat(t, row[2])
		basis := mustFloat(t, row[4])
		raw := mustFloat(t, row[5])
		if !(up < basis && basis < raw) {
			t.Fatalf("expected uplink < basis < raw, got %v %v %v", up, basis, raw)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the centralized baselines")
	}
	s := QuickScale()
	s.Fig6Zs = []int{8}
	s.Fig6L = 6
	tabs := Fig6(s)
	if len(tabs) != 4 {
		t.Fatalf("Fig6 should return 4 metric tables, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 1 || len(tab.Rows[0]) != 8 {
			t.Fatalf("Fig6 table %q has wrong shape", tab.Title)
		}
	}
}

func TestTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the centralized baselines on real-data stand-ins")
	}
	s := QuickScale()
	s.T3Z = 20
	s.T3EMNISTPoints = 300
	s.T3COILClasses = 8
	s.T3COILViews = 12
	s.T3CentralizedN = 150
	tabs := Table3(s)
	if len(tabs) != 2 {
		t.Fatalf("Table3 should return 2 datasets, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 10 { // 5 federated + 5 centralized
			t.Fatalf("Table3 %q has %d rows, want 10", tab.Title, len(tab.Rows))
		}
		// k-FED rows report no connectivity.
		if tab.Rows[2][3] != "-" {
			t.Fatalf("k-FED CONN should be '-', got %q", tab.Rows[2][3])
		}
	}
}

func TestTable4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-L' sweep")
	}
	s := QuickScale()
	s.T3Z = 20
	s.T4Points = 300
	s.T4Classes = 8
	s.T4LPrimes = []int{2, 4}
	tabs := Table4(s)
	if len(tabs) != 2 {
		t.Fatalf("Table4 should return 2 datasets, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 5 {
			t.Fatalf("Table4 %q has %d rows, want 5", tab.Title, len(tab.Rows))
		}
		if len(tab.Rows[0]) != 3 { // method + 2 L' columns
			t.Fatalf("Table4 %q row width %d", tab.Title, len(tab.Rows[0]))
		}
	}
}

func TestPrivacyTradeoffMonotoneish(t *testing.T) {
	if testing.Short() {
		t.Skip("DP sweep")
	}
	s := QuickScale()
	s.Fig4Zs = []int{60}
	tabs := Privacy(s)
	rows := tabs[0].Rows
	// The weakest privacy (largest ε, last row) should be at least as
	// accurate as the strongest (first row).
	strong := mustFloat(t, rows[0][3])
	weak := mustFloat(t, rows[len(rows)-1][3])
	if weak < strong-5 {
		t.Fatalf("weak-privacy accuracy %.1f below strong-privacy %.1f", weak, strong)
	}
}

func TestQuantSweepRecoversAtHighBits(t *testing.T) {
	if testing.Short() {
		t.Skip("quantization sweep")
	}
	s := QuickScale()
	s.Fig4Zs = []int{60}
	tabs := Quant(s)
	rows := tabs[0].Rows
	// 32-bit quantization is effectively lossless: accuracy should be
	// high; 2-bit should not beat it.
	hi := mustFloat(t, rows[len(rows)-1][2])
	lo := mustFloat(t, rows[0][2])
	if hi < 80 {
		t.Fatalf("32-bit quantized accuracy only %.1f", hi)
	}
	if lo > hi+5 {
		t.Fatalf("2-bit accuracy %.1f implausibly above 32-bit %.1f", lo, hi)
	}
	// Uplink bits scale linearly with the bit width.
	b2 := mustFloat(t, rows[0][1])
	b32 := mustFloat(t, rows[len(rows)-1][1])
	if b32 != 16*b2 {
		t.Fatalf("uplink accounting: 32-bit %v should be 16x 2-bit %v", b32, b2)
	}
}

func TestTheoryEasyGeometryHoldsSEP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial theory sweep")
	}
	tabs := Theory(QuickScale())
	rows := tabs[0].Rows
	// The roomiest ambient space (first row) should achieve SEP in every
	// trial and high accuracy; the most cramped (last row) should have a
	// strictly larger measured affinity.
	if rows[0][4] != "5/5" {
		t.Fatalf("easy geometry SEP rate = %s, want 5/5", rows[0][4])
	}
	easyAff := mustFloat(t, rows[0][1])
	hardAff := mustFloat(t, rows[len(rows)-1][1])
	if hardAff <= easyAff {
		t.Fatalf("cramped ambient should raise affinity: %.3f vs %.3f", hardAff, easyAff)
	}
	if acc := mustFloat(t, rows[0][6]); acc < 95 {
		t.Fatalf("easy-geometry accuracy %.1f", acc)
	}
}

func TestScalingCentralGrowsFasterThanFederated(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	s := QuickScale()
	s.Fig4Zs = []int{20, 40, 80}
	tabs := Scaling(s)
	rows := tabs[0].Rows
	last := rows[len(rows)-1]
	if last[0] != "log-log slope" {
		t.Fatalf("missing slope row: %v", last)
	}
	fedSlope := mustFloat(t, last[1])
	centralSlope := mustFloat(t, last[3])
	// The paper's O(Z²N²) vs O(ZN²+Z²): the centralized slope must
	// clearly exceed the federated sequential slope.
	if centralSlope <= fedSlope {
		t.Fatalf("central slope %.2f should exceed federated %.2f", centralSlope, fedSlope)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x² exactly -> slope 2.
	x := []float64{10, 20, 40, 80}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v * v
	}
	if got := loglogSlope(x, y); mathAbs(got-2) > 1e-9 {
		t.Fatalf("slope = %v want 2", got)
	}
	if got := loglogSlope([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("degenerate slope = %v want 0", got)
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}
