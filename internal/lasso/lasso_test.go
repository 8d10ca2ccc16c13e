package lasso

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fedsc/internal/mat"
)

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ v, t, want float64 }{
		{3, 1, 2}, {-3, 1, -2}, {0.5, 1, 0}, {-0.5, 1, 0}, {1, 1, 0},
	}
	for _, c := range cases {
		if got := SoftThreshold(c.v, c.t); got != c.want {
			t.Fatalf("SoftThreshold(%v,%v) = %v want %v", c.v, c.t, got, c.want)
		}
	}
}

// enObjective evaluates (1/2)||y-Xc||² + λ1||c||₁ + (λ2/2)||c||².
func enObjective(x *mat.Dense, y, c []float64, l1, l2 float64) float64 {
	fit := mat.MulVec(x, c)
	r := mat.Sub(y, fit, nil)
	n2 := mat.Norm2(c)
	return 0.5*mat.Dot(r, r) + l1*mat.Norm1(c) + 0.5*l2*n2*n2
}

func TestLassoRecoversSparseSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n, cols := 30, 60
	x := mat.RandomGaussian(n, cols, rng)
	mat.NormalizeColumns(x)
	// y = 2*x3 - 1.5*x17
	y := make([]float64, n)
	mat.Axpy(2, x.Col(3, nil), y)
	mat.Axpy(-1.5, x.Col(17, nil), y)
	c := Lasso(x, y, 0.01, nil)
	if math.Abs(c[3]-2) > 0.1 || math.Abs(c[17]+1.5) > 0.1 {
		t.Fatalf("Lasso missed true support: c3=%v c17=%v", c[3], c[17])
	}
	for j, v := range c {
		if j != 3 && j != 17 && math.Abs(v) > 0.15 {
			t.Fatalf("spurious coefficient c[%d]=%v", j, v)
		}
	}
}

func TestLassoZeroAtHighLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := mat.RandomGaussian(10, 20, rng)
	mat.NormalizeColumns(x)
	y := x.Col(0, nil)
	b := mat.MulTVec(x, y)
	lmax := MaxCorrelation(b, nil)
	c := Lasso(x, y, lmax*1.01, nil)
	for j, v := range c {
		if v != 0 {
			t.Fatalf("c[%d]=%v should be exactly zero above λmax", j, v)
		}
	}
}

func TestLassoBannedIndexStaysZero(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := mat.RandomGaussian(15, 10, rng)
	mat.NormalizeColumns(x)
	y := x.Col(4, nil) // the banned atom is the perfect answer
	c := Lasso(x, y, 0.01, []int{4})
	if c[4] != 0 {
		t.Fatalf("banned coefficient is %v, want 0", c[4])
	}
}

func TestLassoKKTConditions(t *testing.T) {
	// At the optimum: |xⱼᵀr| ≤ λ for cⱼ=0 and xⱼᵀr = λ·sign(cⱼ) otherwise.
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, cols := 12, 25
		x := mat.RandomGaussian(n, cols, r)
		mat.NormalizeColumns(x)
		y := mat.RandomUnitVector(n, r)
		lambda := 0.05 + 0.2*r.Float64()
		c := Lasso(x, y, lambda, nil)
		fit := mat.MulVec(x, c)
		res := mat.Sub(y, fit, nil)
		corr := mat.MulTVec(x, res)
		for j, cj := range c {
			if cj == 0 {
				if math.Abs(corr[j]) > lambda+1e-4 {
					return false
				}
			} else if math.Abs(corr[j]-lambda*sign(cj)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func TestGramMatchesLasso(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := mat.RandomGaussian(20, 15, rng)
	mat.NormalizeColumns(x)
	y := mat.RandomUnitVector(20, rng)
	direct := Lasso(x, y, 0.1, []int{2})
	g := mat.Gram(x)
	b := mat.MulTVec(x, y)
	viaGram := Gram(g, b, 0.1, 0, []int{2})
	for j := range direct {
		if math.Abs(direct[j]-viaGram[j]) > 1e-9 {
			t.Fatalf("Gram-domain solution differs at %d: %v vs %v", j, direct[j], viaGram[j])
		}
	}
}

func TestElasticNetShrinksMore(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x := mat.RandomGaussian(20, 30, rng)
	mat.NormalizeColumns(x)
	y := x.Col(0, nil)
	g := mat.Gram(x)
	b := mat.MulTVec(x, y)
	cl := Gram(g, b, 0.05, 0, nil)
	cen := Gram(g, b, 0.05, 1.0, nil)
	if mat.Norm2(cen) >= mat.Norm2(cl) {
		t.Fatalf("elastic net should shrink: ‖en‖=%v ‖lasso‖=%v", mat.Norm2(cen), mat.Norm2(cl))
	}
}

func TestOMPExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n, cols := 25, 50
	x := mat.RandomGaussian(n, cols, rng)
	mat.NormalizeColumns(x)
	y := make([]float64, n)
	mat.Axpy(1.0, x.Col(7, nil), y)
	mat.Axpy(-2.0, x.Col(30, nil), y)
	c := OMP(x, y, 2, 1e-10, nil)
	if math.Abs(c[7]-1) > 1e-8 || math.Abs(c[30]+2) > 1e-8 {
		t.Fatalf("OMP failed: c7=%v c30=%v", c[7], c[30])
	}
	nnz := 0
	for _, v := range c {
		if v != 0 {
			nnz++
		}
	}
	if nnz != 2 {
		t.Fatalf("OMP support size %d want 2", nnz)
	}
}

func TestOMPRespectsBanned(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x := mat.RandomGaussian(10, 8, rng)
	mat.NormalizeColumns(x)
	y := x.Col(5, nil)
	c := OMP(x, y, 3, 1e-12, []int{5})
	if c[5] != 0 {
		t.Fatalf("banned atom selected: %v", c[5])
	}
}

func TestOMPStopsAtTol(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	x := mat.RandomGaussian(10, 20, rng)
	mat.NormalizeColumns(x)
	y := x.Col(2, nil)
	c := OMP(x, y, 10, 1e-8, nil)
	nnz := 0
	for _, v := range c {
		if v != 0 {
			nnz++
		}
	}
	if nnz != 1 {
		t.Fatalf("OMP should stop after exact 1-atom fit, got %d atoms", nnz)
	}
}

func TestElasticNetActiveSetMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	n, cols := 20, 120
	x := mat.RandomGaussian(n, cols, rng)
	mat.NormalizeColumns(x)
	y := make([]float64, n)
	mat.Axpy(1.5, x.Col(100, nil), y)
	mat.Axpy(1.0, x.Col(3, nil), y)
	l1, l2 := 0.05, 0.1
	cAS := ElasticNetActiveSet(x, y, l1, l2, nil, ActiveSetOptions{InitialSize: 5, GrowBy: 3})
	g := mat.Gram(x)
	b := mat.MulTVec(x, y)
	cFull := Gram(g, b, l1, l2, nil)
	// The two should reach (near) identical objective values.
	oAS := enObjective(x, y, cAS, l1, l2)
	oFull := enObjective(x, y, cFull, l1, l2)
	if math.Abs(oAS-oFull) > 1e-5*(1+math.Abs(oFull)) {
		t.Fatalf("active-set objective %v differs from full solve %v", oAS, oFull)
	}
}

func TestElasticNetActiveSetBanned(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	x := mat.RandomGaussian(12, 40, rng)
	mat.NormalizeColumns(x)
	y := x.Col(9, nil)
	c := ElasticNetActiveSet(x, y, 0.02, 0.05, []int{9}, ActiveSetOptions{})
	if c[9] != 0 {
		t.Fatalf("banned coefficient selected: %v", c[9])
	}
	// Must still fit y reasonably with the other atoms.
	if mat.Norm2(c) == 0 {
		t.Fatal("solution is identically zero")
	}
}

func TestMaxCorrelation(t *testing.T) {
	b := []float64{0.1, -0.9, 0.5}
	if got := MaxCorrelation(b, nil); got != 0.9 {
		t.Fatalf("MaxCorrelation = %v", got)
	}
	if got := MaxCorrelation(b, []int{1}); got != 0.5 {
		t.Fatalf("MaxCorrelation banned = %v", got)
	}
}

// kktViolation returns an error naming the first optimality condition of
// min ½cᵀGc − bᵀc + λ₁‖c‖₁ + (λ₂/2)‖c‖² that c breaks by more than 1e-9
// relative to the problem's scale max|b| + λ₁, or nil at the optimum.
func kktViolation(g *mat.Dense, b, c []float64, l1, l2 float64, banned []int) error {
	gc := mat.MulVec(g, c)
	scale := l1
	for _, v := range b {
		scale = math.Max(scale, math.Abs(v)+l1)
	}
	tol := 1e-9 * scale
	for j, cj := range c {
		r := b[j] - gc[j]
		switch {
		case math.IsNaN(cj):
			return fmt.Errorf("c[%d] is NaN", j)
		case slices.Contains(banned, j):
			if cj != 0 {
				return fmt.Errorf("banned c[%d] = %v", j, cj)
			}
		case cj != 0:
			if d := r - l2*cj - l1*sign(cj); math.Abs(d) > tol {
				return fmt.Errorf("active c[%d] = %v: stationarity off by %v (tol %v)", j, cj, d, tol)
			}
		case math.Abs(r) > l1+tol:
			return fmt.Errorf("zero c[%d]: |correlation| %v exceeds λ₁ %v (tol %v)", j, math.Abs(r), l1, tol)
		}
	}
	return nil
}

func TestGramReachesOptimum(t *testing.T) {
	gaussian := func(seed int64, d, n int) *mat.Dense {
		x := mat.RandomGaussian(d, n, rand.New(rand.NewSource(seed)))
		mat.NormalizeColumns(x)
		return x
	}
	withColumn := func(x *mat.Dense, dst int, col []float64) *mat.Dense {
		for i, v := range col {
			x.Set(i, dst, v)
		}
		return x
	}
	dup := gaussian(61, 15, 20)
	// Atom 7 is atom 2 tilted by 1e-4 toward u, which y follows and no
	// other atom spans, so both atoms of the pair end up active.
	near := gaussian(62, 15, 10)
	u := mat.RandomUnitVector(15, rand.New(rand.NewSource(3)))
	tilt := near.Col(2, nil)
	mat.Axpy(1e-4, u, tilt)
	mat.Normalize(tilt)
	cases := []struct {
		name   string
		x      *mat.Dense
		y      func(x *mat.Dense) []float64
		l1     float64 // fraction of max|b|
		l2     float64
		banned []int
	}{
		{"banned index", gaussian(60, 15, 10), func(x *mat.Dense) []float64 { return x.Col(4, nil) }, 0.02, 0, []int{4}},
		{"lambda above max correlation", gaussian(60, 15, 10), func(x *mat.Dense) []float64 { return x.Col(4, nil) }, 1, 0, nil},
		{"elastic net", gaussian(63, 12, 30), func(x *mat.Dense) []float64 { return mat.RandomUnitVector(12, rand.New(rand.NewSource(1))) }, 0.05, 0.5, nil},
		{"exact duplicate joins", withColumn(dup, 7, dup.Col(2, nil)), func(x *mat.Dense) []float64 {
			y := x.Col(2, nil)
			mat.Axpy(0.3, x.Col(5, nil), y)
			return y
		}, 0.02, 0, nil},
		{"near-collinear pair", withColumn(near, 7, tilt), func(x *mat.Dense) []float64 {
			y := slices.Clone(u)
			mat.Axpy(0.3, x.Col(5, nil), y)
			return y
		}, 1e-5, 0, []int{0}},
		{"more atoms than dimensions", gaussian(64, 5, 40), func(x *mat.Dense) []float64 { return mat.RandomUnitVector(5, rand.New(rand.NewSource(2))) }, 0.01, 0, []int{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mat.Gram(tc.x)
			b := mat.MulTVec(tc.x, tc.y(tc.x))
			l1 := tc.l1 * MaxCorrelation(b, tc.banned)
			c := Gram(g, b, l1, tc.l2, tc.banned)
			if err := kktViolation(g, b, c, l1, tc.l2, tc.banned); err != nil {
				t.Fatal(err)
			}
			if tc.l1 >= 1 && mat.Norm1(c) != 0 {
				t.Fatalf("λ₁ ≥ max|b| must give all zeros, got %v", c)
			}
			if tc.x == near && (c[2] == 0 || c[7] == 0) {
				t.Fatalf("near-collinear pair not both active: c2=%v c7=%v", c[2], c[7])
			}
		})
	}
}

// sscDictionary returns a d×n dictionary with unit columns, of one of the
// kinds the self-expression step meets: "random" Gaussian atoms, a
// low-rank "union" of three subspaces, a "duplicate" whose last atom
// copies atom 0, or a "tilted" one whose last atom is atom 0 moved by
// 1e-7·N(0,1).
func sscDictionary(kind string, d, n int, rng *rand.Rand) *mat.Dense {
	var x *mat.Dense
	if kind == "union" {
		x = mat.NewDense(d, n)
		bases := make([]*mat.Dense, 3)
		for i := range bases {
			bases[i] = mat.RandomGaussian(d, 1+rng.Intn(max(1, min(d, 6))), rng)
		}
		for j := 0; j < n; j++ {
			basis := bases[j%3]
			col := mat.MulVec(basis, mat.RandomUnitVector(basis.Cols(), rng))
			for i, v := range col {
				x.Set(i, j, v)
			}
		}
	} else {
		x = mat.RandomGaussian(d, n, rng)
	}
	if n > 1 && (kind == "duplicate" || kind == "tilted") {
		for i := 0; i < d; i++ {
			v := x.At(i, 0)
			if kind == "tilted" {
				v += 1e-7 * rng.NormFloat64()
			}
			x.Set(i, n-1, v)
		}
	}
	mat.NormalizeColumns(x)
	return x
}

// sameBits reports the first index where got and want differ in any bit,
// or -1.
func sameBits(got, want []float64) int {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return j
		}
	}
	return -1
}

// TestGramBitIdenticalToReference holds Gram to gramReference bit for bit
// on self-expression problems shaped as SSC poses them: unit atoms, the
// point's own atom banned, and λ₁ = max correlation/α for α in [2, 100].
func TestGramBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, kind := range []string{"random", "union", "duplicate", "tilted"} {
		for _, l2 := range []float64{0, 0.3} {
			for _, shape := range [][2]int{{5, 12}, {20, 30}, {12, 60}, {256, 120}, {40, 130}} {
				d, n := shape[0], shape[1]
				x := sscDictionary(kind, d, n, rng)
				g := mat.Gram(x)
				for _, i := range []int{0, n - 1, rng.Intn(n), rng.Intn(n)} {
					b := g.Row(i)
					self := []int{i}
					alpha := 2 + 98*rng.Float64()
					l1 := MaxCorrelation(b, self) / alpha
					got, want := Gram(g, b, l1, l2, self), gramReference(g, b, l1, l2, self)
					if j := sameBits(got, want); j >= 0 {
						t.Fatalf("%s d=%d n=%d i=%d α=%v λ₂=%v: c[%d] = %v, reference %v", kind, d, n, i, alpha, l2, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// FuzzGram checks the KKT conditions of the homotopy's answer on random
// dictionaries, and that it matches gramReference to the bit: dims and
// atoms come from the fuzzer, and dup copies atom 0 over the last atom so
// exact linear dependence is covered too.
func FuzzGram(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), 0.02, 0.0, uint8(0), false)
	f.Add(int64(2), uint8(5), uint8(40), 0.01, 0.0, uint8(3), false)
	f.Add(int64(3), uint8(12), uint8(30), 0.05, 0.5, uint8(0), true)
	f.Add(int64(4), uint8(15), uint8(10), 1.0, 0.0, uint8(4), false)
	f.Add(int64(5), uint8(15), uint8(20), 0.001, 0.0, uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, dims, atoms uint8, frac, l2 float64, ban uint8, dup bool) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) || math.IsNaN(l2) || math.IsInf(l2, 0) {
			t.Skip()
		}
		d, n := 1+int(dims%24), 1+int(atoms%48)
		rng := rand.New(rand.NewSource(seed))
		x := mat.RandomGaussian(d, n, rng)
		if dup && n > 1 {
			for i := 0; i < d; i++ {
				x.Set(i, n-1, x.At(i, 0))
			}
		}
		y := mat.RandomUnitVector(d, rng)
		g, b := mat.Gram(x), mat.MulTVec(x, y)
		var banned []int
		if int(ban) < n {
			banned = []int{int(ban)}
		}
		l1 := (1e-3 + math.Mod(math.Abs(frac), 1.2)) * MaxCorrelation(b, banned)
		l2 = math.Mod(math.Abs(l2), 2)
		c := Gram(g, b, l1, l2, banned)
		if err := kktViolation(g, b, c, l1, l2, banned); err != nil {
			t.Fatal(err)
		}
		want := gramReference(g, b, l1, l2, banned)
		if j := sameBits(c, want); j >= 0 {
			t.Fatalf("c[%d] = %v, reference %v", j, c[j], want[j])
		}
	})
}

// gramReference is the homotopy as it stood before Gram kept the forward
// solve across steps and stored its factor by columns. Gram must match it
// to the bit on every input.
func gramReference(g *mat.Dense, b []float64, lambda1, lambda2 float64, banned []int) []float64 {
	n := len(b)
	if g.Rows() != n || g.Cols() != n {
		panic("lasso: Gram dimension mismatch")
	}
	c := make([]float64, n)
	lam := MaxCorrelation(b, banned)
	if lam <= lambda1 {
		return c
	}
	const (
		free = -1 // may join the active set
		out  = -2 // banned, or set aside as numerically in span(A)
	)
	pos, f := make([]int, n), &refFactor{}
	r, a := make([]float64, n), make([]float64, n)
	for j := range pos {
		pos[j] = free
	}
	for _, j := range banned {
		pos[j] = out
	}
	copy(r, b)
	dropped, left := -1, 0.0 // last dropped atom and its sign
	for step := 0; step < 8*n; step++ {
		w := f.direction()
		clear(a)
		for k, j := range f.active {
			mat.Axpy(w[k], g.Row(j), a) // G is symmetric: row j is column j
		}
		gamma, event, sign := lam-lambda1, -1, 0.0
		for j, p := range pos {
			switch {
			case p >= 0:
				// Clamped at 0 so a coefficient that rounding left at or
				// past zero (a tie with the last drop) drops at once.
				if w[p]*f.sign[p] < 0 {
					if t := max(0, -c[j]/w[p]); t < gamma {
						gamma, event = t, j
					}
				}
			case p == free:
				// A just-dropped atom sits on the boundary it left; in the
				// next piece only the opposite boundary can take it back.
				if d := 1 - a[j]; d > 0 && (j != dropped || left < 0) {
					if t := max(0, lam-r[j]) / d; t < gamma {
						gamma, event, sign = t, j, 1
					}
				}
				if d := 1 + a[j]; d > 0 && (j != dropped || left > 0) {
					if t := max(0, lam+r[j]) / d; t < gamma {
						gamma, event, sign = t, j, -1
					}
				}
			}
		}
		for k, j := range f.active {
			c[j] += gamma * w[k]
		}
		mat.Axpy(-gamma, a, r)
		lam -= gamma
		dropped = -1
		switch {
		case event < 0:
			return c
		case pos[event] >= 0:
			c[event] = 0
			left = f.sign[pos[event]]
			f.drop(pos[event])
			for k, j := range f.active {
				pos[j] = k
			}
			pos[event], dropped = free, event
		case f.join(g, event, sign, lambda2):
			pos[event] = len(f.active) - 1
		default:
			pos[event] = out
		}
	}
	return c
}

// refFactor is gramReference's factor: the lower Cholesky factor of
// G_AA + λ₂I packed by rows (row i starts at i(i+1)/2), with both
// triangles re-solved every step.
type refFactor struct {
	active []int     // atoms in join order
	sign   []float64 // sign of each active coefficient
	l      []float64 // packed lower Cholesky factor
	w      []float64 // (G_AA + λ₂I)⁻¹ sign
}

func rowStart(i int) int { return i * (i + 1) / 2 }

// direction solves L Lᵀ w = sign by forward and back substitution.
func (f *refFactor) direction() []float64 {
	w := append(f.w[:0], f.sign...)
	m := len(w)
	for i := 0; i < m; i++ {
		row := f.l[rowStart(i) : rowStart(i)+i+1]
		w[i] = (w[i] - mat.Dot(row[:i], w[:i])) / row[i]
	}
	for i := m - 1; i >= 0; i-- {
		s := w[i]
		for k := i + 1; k < m; k++ {
			s -= f.l[rowStart(k)+i] * w[k]
		}
		w[i] = s / f.l[rowStart(i)+i]
	}
	f.w = w
	return w
}

// join appends atom j with the given sign, adding one row to the factor
// in O(|A|²). It reports false, leaving the factor unchanged, when the
// new pivot is at most 1e-12·(G_jj + λ₂): the atom is then numerically
// in the span of the active set.
func (f *refFactor) join(g *mat.Dense, j int, sign, lambda2 float64) bool {
	gj := g.Row(j)
	base := len(f.l)
	for k, i := range f.active {
		row := f.l[rowStart(k) : rowStart(k)+k+1]
		f.l = append(f.l, (gj[i]-mat.Dot(row[:k], f.l[base:base+k]))/row[k])
	}
	z := f.l[base:]
	d := gj[j] + lambda2 - mat.Dot(z, z)
	if d <= 1e-12*(gj[j]+lambda2) {
		f.l = f.l[:base]
		return false
	}
	f.l = append(f.l, math.Sqrt(d))
	f.active = append(f.active, j)
	f.sign = append(f.sign, sign)
	return true
}

// drop removes the atom at position p. Deleting row p of L leaves rows
// p+1.. with one entry above the diagonal; Givens rotations on column
// pairs (k, k+1) zero those entries, and the emptied last column goes.
func (f *refFactor) drop(p int) {
	m := len(f.active)
	for k := p; k < m-1; k++ {
		top := rowStart(k + 1)
		h := math.Hypot(f.l[top+k], f.l[top+k+1])
		cs, sn := f.l[top+k]/h, f.l[top+k+1]/h
		for i := k + 1; i < m; i++ {
			ri := rowStart(i)
			x, y := f.l[ri+k], f.l[ri+k+1]
			f.l[ri+k], f.l[ri+k+1] = cs*x+sn*y, cs*y-sn*x
		}
	}
	for i := p; i < m-1; i++ {
		copy(f.l[rowStart(i):rowStart(i)+i+1], f.l[rowStart(i+1):])
	}
	f.l = f.l[:rowStart(m-1)]
	f.active = slices.Delete(f.active, p, p+1)
	f.sign = slices.Delete(f.sign, p, p+1)
}
