package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestSketchGaussianPreservesInnerProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Unit-norm columns in a 200-dim ambient space, sketched to 80 rows:
	// JL distortion on pairwise inner products should be small.
	a := RandomGaussian(200, 30, rng)
	NormalizeColumns(a)
	sk := Sketch(a, 80, rand.New(rand.NewSource(2)))
	if sk.Rows() != 80 || sk.Cols() != 30 {
		t.Fatalf("sketch is %dx%d, want 80x30", sk.Rows(), sk.Cols())
	}
	g := Gram(a)
	gs := Gram(sk)
	maxErr := 0.0
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if e := math.Abs(g.At(i, j) - gs.At(i, j)); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.5 {
		t.Fatalf("sketched Gram deviates by %.3f, want JL-small", maxErr)
	}
}

func TestSketchDeterministicAndNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomGaussian(40, 9, rng)
	s1 := Sketch(a, 16, rand.New(rand.NewSource(7)))
	s2 := Sketch(a, 16, rand.New(rand.NewSource(7)))
	if !Equalish(s1, s2, 0) {
		t.Fatalf("sketch not deterministic under a fixed seed")
	}
	// s >= rows or s <= 0: the input comes back untouched.
	if got := Sketch(a, 40, rng); got != a {
		t.Fatalf("s == rows should return the input unchanged")
	}
	if got := Sketch(a, 0, rng); got != a {
		t.Fatalf("s == 0 should return the input unchanged")
	}
}
