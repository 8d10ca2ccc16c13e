package lasso

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedsc/internal/mat"
)

func TestADMMMatchesLARS(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	x := mat.RandomGaussian(25, 40, rng)
	mat.NormalizeColumns(x)
	y := mat.RandomUnitVector(25, rng)
	g := mat.Gram(x)
	b := mat.MulTVec(x, y)
	lambda := 0.08
	lars := Gram(g, b, lambda, 0, []int{3})
	solver := NewADMMSolver(g, ADMMOptions{MaxIter: 3000, AbsTol: 1e-10, RelTol: 1e-9})
	admm := solver.Solve(b, lambda, []int{3})
	// Compare objectives, which is the right notion of agreement for two
	// different optimizers.
	obj := func(c []float64) float64 {
		fit := mat.MulVec(x, c)
		r := mat.Sub(y, fit, nil)
		return 0.5*mat.Dot(r, r) + lambda*mat.Norm1(c)
	}
	ol, oa := obj(lars), obj(admm)
	if math.Abs(ol-oa) > 1e-5*(1+ol) {
		t.Fatalf("objectives differ: LARS %v vs ADMM %v", ol, oa)
	}
	if admm[3] != 0 {
		t.Fatalf("banned coefficient escaped: %v", admm[3])
	}
}

func TestADMMSolverReusableAcrossPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	x := mat.RandomGaussian(15, 20, rng)
	mat.NormalizeColumns(x)
	g := mat.Gram(x)
	solver := NewADMMSolver(g, ADMMOptions{})
	for i := 0; i < 5; i++ {
		b := g.Row(i)
		c := solver.Solve(b, 0.05, []int{i})
		if c[i] != 0 {
			t.Fatalf("point %d: self coefficient %v", i, c[i])
		}
	}
}

func TestADMMPropertyKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, cols := 10, 18
		x := mat.RandomGaussian(n, cols, r)
		mat.NormalizeColumns(x)
		y := mat.RandomUnitVector(n, r)
		lambda := 0.1 + 0.2*r.Float64()
		g := mat.Gram(x)
		b := mat.MulTVec(x, y)
		c := NewADMMSolver(g, ADMMOptions{MaxIter: 2000, AbsTol: 1e-9, RelTol: 1e-8}).Solve(b, lambda, nil)
		fit := mat.MulVec(x, c)
		res := mat.Sub(y, fit, nil)
		corr := mat.MulTVec(x, res)
		for j, cj := range c {
			if cj == 0 {
				if math.Abs(corr[j]) > lambda+1e-3 {
					return false
				}
			} else if math.Abs(corr[j]-lambda*signOf(cj)) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func signOf(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func TestCholeskyFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(215))
	g := mat.RandomGaussian(8, 8, rng)
	a := mat.MulTA(g, g)
	for i := 0; i < 8; i++ {
		a.Add(i, i, 1) // well-conditioned SPD
	}
	l := cholesky(a)
	rec := mat.MulBT(l, l)
	if !mat.Equalish(rec, a, 1e-9*(1+a.MaxAbs())) {
		t.Fatal("L·Lᵀ does not reconstruct A")
	}
	// Solve against a known vector.
	want := []float64{1, -2, 3, 0, 1, 2, -1, 0.5}
	b := mat.MulVec(a, want)
	x := make([]float64, 8)
	cholSolve(l, b, x)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("cholSolve x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}
