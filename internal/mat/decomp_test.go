package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// orthonormalError returns the max deviation of qᵀq from the identity.
func orthonormalError(q *Dense) float64 {
	g := MulTA(q, q)
	n := g.Rows()
	max := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.At(i, j) - want); d > max {
				max = d
			}
		}
	}
	return max
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {30, 7}, {3, 1}} {
		a := RandomGaussian(dims[0], dims[1], rng)
		qr := QRFactor(a)
		if err := orthonormalError(qr.Q); err > 1e-10 {
			t.Fatalf("%v: Q not orthonormal, err=%g", dims, err)
		}
		rec := Mul(qr.Q, qr.R)
		if !Equalish(rec, a, 1e-10) {
			t.Fatalf("%v: QR does not reconstruct A", dims)
		}
		// R upper triangular.
		for i := 1; i < dims[1]; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(qr.R.At(i, j)) > 1e-12 {
					t.Fatalf("%v: R not upper triangular at %d,%d", dims, i, j)
				}
			}
		}
	}
}

func TestQRPropertyBased(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(20)
		n := 1 + r.Intn(m)
		a := RandomGaussian(m, n, r)
		qr := QRFactor(a)
		return orthonormalError(qr.Q) < 1e-9 && Equalish(Mul(qr.Q, qr.R), a, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOrthonormalizeRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Three columns, third is a combination of the first two.
	a := RandomGaussian(8, 3, rng)
	for i := 0; i < 8; i++ {
		a.Set(i, 2, 2*a.At(i, 0)-a.At(i, 1))
	}
	q := Orthonormalize(a, 1e-10)
	if q.Cols() != 2 {
		t.Fatalf("Orthonormalize kept %d cols, want 2", q.Cols())
	}
	if err := orthonormalError(q); err > 1e-10 {
		t.Fatalf("result not orthonormal: %g", err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandomGaussian(10, 4, rng)
	xTrue := []float64{1, -2, 3, 0.5}
	b := MulVec(a, xTrue)
	x := LeastSquares(a, b)
	for i := range xTrue {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Fatalf("LeastSquares x[%d]=%v want %v", i, x[i], xTrue[i])
		}
	}
}

func TestSolveUpperTriangular(t *testing.T) {
	r := NewDenseData(2, 2, []float64{2, 1, 0, 4})
	x := SolveUpperTriangular(r, []float64{5, 8})
	if math.Abs(x[1]-2) > 1e-14 || math.Abs(x[0]-1.5) > 1e-14 {
		t.Fatalf("SolveUpperTriangular wrong: %v", x)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	eig := SymEigen(a)
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(eig.Values[i]-w) > 1e-12 {
			t.Fatalf("eigenvalue %d = %v want %v", i, eig.Values[i], w)
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 5, 12, 40} {
		g := RandomGaussian(n, n, rng)
		a := MulTA(g, g) // symmetric PSD
		eig := SymEigen(a)
		if err := orthonormalError(eig.Vectors); err > 1e-9 {
			t.Fatalf("n=%d eigenvectors not orthonormal: %g", n, err)
		}
		// Reconstruct V diag(λ) Vᵀ.
		vd := eig.Vectors.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(i, j, vd.At(i, j)*eig.Values[j])
			}
		}
		rec := MulBT(vd, eig.Vectors)
		if !Equalish(rec, a, 1e-8*(1+a.MaxAbs())) {
			t.Fatalf("n=%d eigendecomposition does not reconstruct", n)
		}
		// Sorted ascending.
		for i := 1; i < n; i++ {
			if eig.Values[i] < eig.Values[i-1]-1e-12 {
				t.Fatalf("n=%d eigenvalues not sorted", n)
			}
		}
	}
}

func TestSymEigenIndefinite(t *testing.T) {
	// [[0,1],[1,0]] has eigenvalues ±1.
	a := NewDenseData(2, 2, []float64{0, 1, 1, 0})
	eig := SymEigen(a)
	if math.Abs(eig.Values[0]+1) > 1e-12 || math.Abs(eig.Values[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v want [-1 1]", eig.Values)
	}
}

func TestSymEigenPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := RandomGaussian(9, 9, rng)
	a := MulTA(g, g)
	full := SymEigen(a)
	part := SymEigenPartial(a, 3)
	if len(part.Values) != 3 {
		t.Fatalf("partial returned %d values", len(part.Values))
	}
	for i := 0; i < 3; i++ {
		if math.Abs(part.Values[i]-full.Values[i]) > 1e-10 {
			t.Fatalf("partial value %d mismatch", i)
		}
	}
}

func TestSymEigenPartialMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		k := 1 + r.Intn(n)
		g := RandomGaussian(n, n, r)
		a := MulTA(g, g)
		full := SymEigen(a)
		part := SymEigenPartial(a, k)
		if len(part.Values) != k || part.Vectors.Cols() != k {
			return false
		}
		if orthonormalError(part.Vectors) > 1e-8 {
			return false
		}
		scale := 1 + a.MaxAbs()
		for j := 0; j < k; j++ {
			if math.Abs(part.Values[j]-full.Values[j]) > 1e-8*scale {
				return false
			}
			// A v = λ v residual — eigenvectors need not match the full
			// solver's sign or (in degenerate subspaces) direction, but
			// they must satisfy the eigen equation.
			v := part.Vectors.Col(j, nil)
			av := MulVec(a, v)
			for i := range av {
				if math.Abs(av[i]-part.Values[j]*v[i]) > 1e-6*scale {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenPartialMultiplicity(t *testing.T) {
	// Block-diagonal Laplacian of two disconnected components: eigenvalue
	// 0 has multiplicity 2, the classic degenerate case spectral
	// clustering feeds the solver. The partial solver must return an
	// orthonormal pair of vectors spanning the null space.
	n := 12
	a := NewDense(n, n)
	for _, blk := range [][2]int{{0, 6}, {6, 12}} {
		for i := blk[0]; i < blk[1]; i++ {
			for j := blk[0]; j < blk[1]; j++ {
				if i == j {
					a.Set(i, j, float64(blk[1]-blk[0]-1))
				} else {
					a.Set(i, j, -1)
				}
			}
		}
	}
	part := SymEigenPartial(a, 3)
	if math.Abs(part.Values[0]) > 1e-8 || math.Abs(part.Values[1]) > 1e-8 {
		t.Fatalf("null-space eigenvalues = %v, want two zeros", part.Values[:2])
	}
	if part.Values[2] < 1 {
		t.Fatalf("third eigenvalue = %v, want the spectral gap", part.Values[2])
	}
	if err := orthonormalError(part.Vectors); err > 1e-8 {
		t.Fatalf("degenerate eigenvectors not orthonormal: %g", err)
	}
	scale := 1 + a.MaxAbs()
	for j := 0; j < 3; j++ {
		v := part.Vectors.Col(j, nil)
		av := MulVec(a, v)
		for i := range av {
			if math.Abs(av[i]-part.Values[j]*v[i]) > 1e-7*scale {
				t.Fatalf("eigenpair %d residual too large", j)
			}
		}
	}
}

func TestSymEigenPartialEdgeCases(t *testing.T) {
	if eig := SymEigenPartial(NewDense(0, 0), 3); len(eig.Values) != 0 || eig.Vectors.Cols() != 0 {
		t.Fatal("empty matrix should yield empty decomposition")
	}
	a := NewDenseData(2, 2, []float64{2, 0, 0, 5})
	if eig := SymEigenPartial(a, 0); len(eig.Values) != 0 {
		t.Fatal("k=0 should yield no values")
	}
	eig := SymEigenPartial(a, 10) // k clamps to n
	if len(eig.Values) != 2 || math.Abs(eig.Values[0]-2) > 1e-12 || math.Abs(eig.Values[1]-5) > 1e-12 {
		t.Fatalf("clamped decomposition = %v", eig.Values)
	}
}

func TestSymEigenPropertyResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		g := RandomGaussian(n, n, r)
		a := MulTA(g, g)
		eig := SymEigen(a)
		// Check A v = λ v for every pair.
		for j := 0; j < n; j++ {
			v := eig.Vectors.Col(j, nil)
			av := MulVec(a, v)
			for i := range av {
				if math.Abs(av[i]-eig.Values[j]*v[i]) > 1e-7*(1+a.MaxAbs()) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range [][2]int{{6, 6}, {12, 5}, {5, 12}, {20, 3}} {
		a := RandomGaussian(dims[0], dims[1], rng)
		svd := SVDFactor(a)
		if err := orthonormalError(svd.U); err > 1e-9 {
			t.Fatalf("%v: U not orthonormal: %g", dims, err)
		}
		if err := orthonormalError(svd.V); err > 1e-9 {
			t.Fatalf("%v: V not orthonormal: %g", dims, err)
		}
		// Reconstruct U diag(S) Vᵀ.
		us := svd.U.Clone()
		for i := 0; i < us.Rows(); i++ {
			for j := 0; j < us.Cols(); j++ {
				us.Set(i, j, us.At(i, j)*svd.S[j])
			}
		}
		rec := MulBT(us, svd.V)
		if !Equalish(rec, a, 1e-9*(1+a.MaxAbs())) {
			t.Fatalf("%v: SVD does not reconstruct", dims)
		}
		// Descending order.
		for i := 1; i < len(svd.S); i++ {
			if svd.S[i] > svd.S[i-1]+1e-12 {
				t.Fatalf("%v: singular values not descending", dims)
			}
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) embedded in a 3x2 matrix.
	a := NewDenseData(3, 2, []float64{3, 0, 0, 2, 0, 0})
	svd := SVDFactor(a)
	if math.Abs(svd.S[0]-3) > 1e-12 || math.Abs(svd.S[1]-2) > 1e-12 {
		t.Fatalf("singular values = %v want [3 2]", svd.S)
	}
}

func TestTruncatedSVDSpansSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	// Build a rank-3 matrix in R^10 and verify the truncated basis spans
	// the same subspace.
	basis := RandomOrthonormal(10, 3, rng)
	coef := RandomGaussian(3, 25, rng)
	x := Mul(basis, coef)
	u, s := TruncatedSVD(x, 3)
	if u.Cols() != 3 {
		t.Fatalf("TruncatedSVD returned %d cols", u.Cols())
	}
	if err := orthonormalError(u); err > 1e-8 {
		t.Fatalf("U not orthonormal: %g", err)
	}
	if s[2] <= 0 {
		t.Fatalf("third singular value should be positive: %v", s)
	}
	// Projection of basis onto span(u) should equal basis.
	p := Mul(u, MulTA(u, basis))
	if !Equalish(p, basis, 1e-8) {
		t.Fatal("TruncatedSVD basis does not span the true subspace")
	}
}

func TestTruncatedSVDWide(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	basis := RandomOrthonormal(6, 2, rng)
	coef := RandomGaussian(2, 40, rng)
	x := Mul(basis, coef) // 6 x 40 (wide)
	u, _ := TruncatedSVD(x, 2)
	p := Mul(u, MulTA(u, basis))
	if !Equalish(p, basis, 1e-8) {
		t.Fatal("wide TruncatedSVD basis does not span the true subspace")
	}
}

func TestNumericalRank(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	basis := RandomOrthonormal(8, 4, rng)
	coef := RandomGaussian(4, 10, rng)
	x := Mul(basis, coef)
	if r := NumericalRank(x, 1e-9); r != 4 {
		t.Fatalf("NumericalRank = %d want 4", r)
	}
	if r := NumericalRank(NewDense(5, 3), 1e-9); r != 0 {
		t.Fatalf("NumericalRank of zero matrix = %d want 0", r)
	}
}

func TestRandomOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := RandomOrthonormal(15, 6, rng)
	if err := orthonormalError(q); err > 1e-10 {
		t.Fatalf("RandomOrthonormal not orthonormal: %g", err)
	}
}

func TestRandomUnitVector(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	v := RandomUnitVector(9, rng)
	if math.Abs(Norm2(v)-1) > 1e-12 {
		t.Fatalf("RandomUnitVector norm = %v", Norm2(v))
	}
}

func TestVectorKernels(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 || Norm1(x) != 7 || NormInf(x) != 4 {
		t.Fatal("vector norms wrong")
	}
	y := []float64{1, 1}
	if Dot(x, y) != -1 {
		t.Fatal("Dot wrong")
	}
	z := make([]float64, 2)
	copy(z, x)
	if n := Normalize(z); math.Abs(n-5) > 1e-15 || math.Abs(Norm2(z)-1) > 1e-15 {
		t.Fatal("Normalize wrong")
	}
	Axpy(2, y, z) // z += 2y
	if math.Abs(z[0]-(3.0/5+2)) > 1e-15 {
		t.Fatal("Axpy wrong")
	}
	d := Sub(x, y, nil)
	if d[0] != 2 || d[1] != -5 {
		t.Fatal("Sub wrong")
	}
	ScaleVec(0.5, d)
	if d[0] != 1 {
		t.Fatal("ScaleVec wrong")
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := NewDenseData(2, 3, []float64{3, 0, 0, 4, 5, 0})
	NormalizeColumns(m)
	norms := ColNorms(m)
	if math.Abs(norms[0]-1) > 1e-14 || math.Abs(norms[1]-1) > 1e-14 {
		t.Fatalf("NormalizeColumns norms = %v", norms)
	}
	if norms[2] != 0 {
		t.Fatal("zero column should remain zero")
	}
}

// TestJacobiAllocsPerCall bounds the allocations of a small Jacobi SVD:
// one closure serves every round, so the count does not grow with the
// number of rounds (a closure per round cost ~100 at this shape).
func TestJacobiAllocsPerCall(t *testing.T) {
	a := RandomGaussian(20, 15, rand.New(rand.NewSource(41)))
	if n := testing.AllocsPerRun(10, func() { SingularValues(a) }); n > 16 {
		t.Fatalf("SingularValues(20×15) makes %v allocations, want ≤ 16", n)
	}
	if n := testing.AllocsPerRun(10, func() { SVDFactor(a) }); n > 20 {
		t.Fatalf("SVDFactor(20×15) makes %v allocations, want ≤ 20", n)
	}
}
