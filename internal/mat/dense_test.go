package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at %d,%d", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("after Add At(1,2) = %v want 8", got)
	}
}

func TestNewDenseDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d want 3,2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestColAndSetCol(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	col := m.Col(1, nil)
	want := []float64{2, 4, 6}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("Col(1)[%d] = %v want %v", i, col[i], want[i])
		}
	}
	m.SetCol(0, []float64{9, 8, 7})
	if m.At(2, 0) != 7 {
		t.Fatalf("SetCol failed: At(2,0)=%v", m.At(2, 0))
	}
	cv := m.ColAt(1)
	if cv.Len() != 3 || cv.At(2) != 6 {
		t.Fatalf("ColAt view wrong: len=%d At(2)=%v", cv.Len(), cv.At(2))
	}
}

func TestSliceAndSelectCols(t *testing.T) {
	m := NewDenseData(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s := m.SliceCols(1, 3)
	if s.Cols() != 2 || s.At(0, 0) != 2 || s.At(1, 1) != 7 {
		t.Fatalf("SliceCols wrong: %v", s)
	}
	sel := m.SelectCols([]int{3, 0})
	if sel.At(0, 0) != 4 || sel.At(0, 1) != 1 {
		t.Fatalf("SelectCols wrong: %v", sel)
	}
}

func TestHStack(t *testing.T) {
	a := NewDenseData(2, 1, []float64{1, 2})
	b := NewDenseData(2, 2, []float64{3, 4, 5, 6})
	h := HStack(a, b)
	if h.Cols() != 3 || h.At(0, 1) != 3 || h.At(1, 2) != 6 {
		t.Fatalf("HStack wrong: %v", h)
	}
	if HStack().Cols() != 0 {
		t.Fatal("empty HStack should be 0x0")
	}
}

func TestSymmetrizeAndMaxAbs(t *testing.T) {
	m := NewDenseData(2, 2, []float64{0, 4, 2, 0})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %v", m)
	}
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v want 3", m.MaxAbs())
	}
}

func TestIdentityAndFrobenius(t *testing.T) {
	id := Identity(3)
	if got := id.FrobeniusNorm(); math.Abs(got-math.Sqrt(3)) > 1e-15 {
		t.Fatalf("FrobeniusNorm(I3) = %v", got)
	}
}

func TestAddScaled(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := NewDenseData(1, 2, []float64{10, 20})
	a.AddScaled(0.5, b)
	if a.At(0, 0) != 6 || a.At(0, 1) != 12 {
		t.Fatalf("AddScaled wrong: %v", a)
	}
}

func TestMulBasic(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !Equalish(p, want, 1e-12) {
		t.Fatalf("Mul wrong: %v", p)
	}
}

func TestMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomGaussian(7, 4, rng)
	b := RandomGaussian(7, 5, rng)
	got := MulTA(a, b)
	want := Mul(a.T(), b)
	if !Equalish(got, want, 1e-10) {
		t.Fatal("MulTA does not match explicit transpose product")
	}
}

func TestMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomGaussian(4, 6, rng)
	b := RandomGaussian(5, 6, rng)
	got := MulBT(a, b)
	want := Mul(a, b.T())
	if !Equalish(got, want, 1e-10) {
		t.Fatal("MulBT does not match explicit transpose product")
	}
}

func TestGramSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomGaussian(8, 5, rng)
	g := Gram(a)
	if !Equalish(g, g.T(), 1e-12) {
		t.Fatal("Gram matrix is not symmetric")
	}
	// Diagonal entries are squared column norms.
	norms := ColNorms(a)
	for j := 0; j < 5; j++ {
		if math.Abs(g.At(j, j)-norms[j]*norms[j]) > 1e-10 {
			t.Fatalf("Gram diagonal %d mismatch", j)
		}
	}
}

// TestGramMatchesMulTABits: Gram computes the lower triangle and
// mirrors it, which for finite input is MulTA(a, a) to the bit, exact
// zeros (skipped on one side only) and underflowing products included,
// on the serial path and on the one that fans out.
func TestGramMatchesMulTABits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{1, 1}, {20, 30}, {20, 15}, {7, 40}, {90, 120}} {
		a := RandomGaussian(shape[0], shape[1], rng)
		for i, v := range a.data {
			switch rng.Intn(6) {
			case 0:
				a.data[i] = 0
			case 1:
				a.data[i] = v * 1e-170
			}
		}
		g, want := Gram(a), MulTA(a, a)
		for i, v := range want.data {
			if math.Float64bits(g.data[i]) != math.Float64bits(v) {
				t.Fatalf("%dx%d: Gram entry %d = %v, MulTA %v", shape[0], shape[1], i, g.data[i], v)
			}
		}
	}
}

func TestMulVecAndMulTVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	got := MulVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec wrong: %v", got)
	}
	y := []float64{1, 1}
	gt := MulTVec(a, y)
	if gt[0] != 5 || gt[1] != 7 || gt[2] != 9 {
		t.Fatalf("MulTVec wrong: %v", gt)
	}
}

func TestMulParallelLarge(t *testing.T) {
	// Exercise the parallel path (work above the threshold).
	rng := rand.New(rand.NewSource(4))
	a := RandomGaussian(80, 90, rng)
	b := RandomGaussian(90, 70, rng)
	p := Mul(a, b)
	// Spot-check a few entries against direct dot products.
	for _, ij := range [][2]int{{0, 0}, {40, 35}, {79, 69}} {
		i, j := ij[0], ij[1]
		want := 0.0
		for k := 0; k < 90; k++ {
			want += a.At(i, k) * b.At(k, j)
		}
		if math.Abs(p.At(i, j)-want) > 1e-9 {
			t.Fatalf("parallel Mul wrong at %d,%d", i, j)
		}
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}
