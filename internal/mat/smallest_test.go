package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// smallestCases are the symmetric matrices the values-first eigensolver
// is checked on: random PSD Gram matrices, rank-deficient ones (a
// repeated zero eigenvalue), block-diagonal Laplacians (repeated zero
// eigenvalues with exact zeros off the blocks), and a normalized
// Laplacian with an isolated vertex.
func smallestCases() map[string]*Dense {
	rng := rand.New(rand.NewSource(31))
	cases := map[string]*Dense{}
	for _, n := range []int{1, 2, 5, 12, 30, 61} {
		g := RandomGaussian(n, n, rng)
		cases[fmt.Sprintf("random n=%d", n)] = MulTA(g, g)
		b := RandomGaussian(max(1, n/4), n, rng)
		cases[fmt.Sprintf("rank-deficient n=%d", n)] = MulTA(b, b)
	}
	cases["block-diagonal"] = blockLaplacian([]int{6, 6, 8})
	cases["isolated vertex"] = normalizedLaplacian(blockLaplacian([]int{5, 1, 9}))
	return cases
}

// blockLaplacian is the combinatorial Laplacian of disjoint cliques of
// the given sizes; a clique of size 1 is an isolated vertex.
func blockLaplacian(sizes []int) *Dense {
	n := 0
	for _, s := range sizes {
		n += s
	}
	a := NewDense(n, n)
	lo := 0
	for _, s := range sizes {
		for i := lo; i < lo+s; i++ {
			for j := lo; j < lo+s; j++ {
				if i == j {
					a.Set(i, j, float64(s-1))
				} else {
					a.Set(i, j, -1)
				}
			}
		}
		lo += s
	}
	return a
}

// normalizedLaplacian maps a combinatorial Laplacian D − W to
// I − D^{-1/2} W D^{-1/2}, giving a zero-degree vertex unit degree (its
// eigenvalue is then 1, as in package spectral).
func normalizedLaplacian(l *Dense) *Dense {
	n := l.Rows()
	dinv := make([]float64, n)
	for i := range dinv {
		dinv[i] = 1
		if d := l.At(i, i); d > 0 {
			dinv[i] = 1 / math.Sqrt(d)
		}
	}
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				out.Set(i, j, 1)
			} else {
				out.Set(i, j, dinv[i]*l.At(i, j)*dinv[j]) // −D^{-1/2} W D^{-1/2}
			}
		}
	}
	return out
}

// TestSymEigenSmallestValuesBitIdentical pins the values contract: with
// 2k > n they are SymEigen's values to the bit (a values-only QL run
// over the same tridiagonal), and with 2k ≤ n they are the bisection
// values, close to SymEigen's. Either way, picking fewer vectors leaves
// the values and the picked columns unchanged to the bit — which is
// what lets the eigengap compute only the vectors it reads.
func TestSymEigenSmallestValuesBitIdentical(t *testing.T) {
	for name, a := range smallestCases() {
		n := a.Rows()
		full := SymEigen(a)
		for k := 1; k <= n; k++ {
			all := SymEigenSmallest(a, k, nil)
			if len(all.Values) != k || all.Vectors.Cols() != k {
				t.Fatalf("%s k=%d: %d values and %d vectors", name, k, len(all.Values), all.Vectors.Cols())
			}
			for j, v := range all.Values {
				if 2*k > n && math.Float64bits(v) != math.Float64bits(full.Values[j]) {
					t.Fatalf("%s k=%d: value %d is %v, SymEigen gives %v", name, k, j, v, full.Values[j])
				}
				if math.Abs(v-full.Values[j]) > 1e-12*(1+a.MaxAbs()) {
					t.Fatalf("%s k=%d: value %d is %v, SymEigen gives %v", name, k, j, v, full.Values[j])
				}
			}
			m := k / 2
			part := SymEigenSmallest(a, k, func([]float64) int { return m })
			if part.Vectors.Cols() != m {
				t.Fatalf("%s k=%d: picked %d vectors, got %d", name, k, m, part.Vectors.Cols())
			}
			for j, v := range part.Values {
				if math.Float64bits(v) != math.Float64bits(all.Values[j]) {
					t.Fatalf("%s k=%d: value %d moved with the pick", name, k, j)
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					if math.Float64bits(part.Vectors.At(i, j)) != math.Float64bits(all.Vectors.At(i, j)) {
						t.Fatalf("%s k=%d: vector %d moved with the pick", name, k, j)
					}
				}
			}
		}
	}
	// The values-only QL run over many more shapes, rank-deficient
	// ones half the time.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(61)
		rows := n
		if trial%2 == 1 {
			rows = 1 + rng.Intn(n)
		}
		g := RandomGaussian(rows, n, rng)
		a := MulTA(g, g)
		got, want := SymEigenSmallest(a, n, func([]float64) int { return 0 }).Values, SymEigen(a).Values
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (n=%d, rank ≤ %d): value %d is %v, SymEigen gives %v", trial, n, rows, j, got[j], want[j])
			}
		}
	}
}

// TestSymEigenSmallestVectors checks every picked eigenpair satisfies
// ‖Av − λv‖ ≤ 1e-10·‖A‖ and the vectors are orthonormal, repeated
// eigenvalues and the isolated vertex included.
func TestSymEigenSmallestVectors(t *testing.T) {
	for name, a := range smallestCases() {
		n := a.Rows()
		vals := SymEigen(a).Values
		norm := math.Max(-vals[0], vals[n-1]) // ‖A‖₂
		for _, k := range []int{1, (n + 1) / 2, n} {
			eig := SymEigenSmallest(a, k, nil)
			if err := orthonormalError(eig.Vectors); err > 1e-10 {
				t.Fatalf("%s k=%d: vectors off orthonormal by %g", name, k, err)
			}
			for j := 0; j < k; j++ {
				v := eig.Vectors.Col(j, nil)
				av := MulVec(a, v)
				for i := range av {
					av[i] -= eig.Values[j] * v[i]
				}
				if res := Norm2(av); res > 1e-10*norm {
					t.Fatalf("%s k=%d: pair %d residual %g > 1e-10·‖A‖", name, k, j, res)
				}
			}
		}
	}
}

func TestSymEigenSmallestPickClamps(t *testing.T) {
	a := blockLaplacian([]int{3, 4})
	if eig := SymEigenSmallest(a, 3, func([]float64) int { return 9 }); eig.Vectors.Cols() != 3 {
		t.Fatalf("pick above k gave %d vectors, want 3", eig.Vectors.Cols())
	}
	if eig := SymEigenSmallest(a, 3, func([]float64) int { return -1 }); eig.Vectors.Cols() != 0 || len(eig.Values) != 3 {
		t.Fatalf("negative pick gave %d vectors and %d values", eig.Vectors.Cols(), len(eig.Values))
	}
}
