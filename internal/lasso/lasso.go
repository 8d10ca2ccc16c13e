// Package lasso implements the sparse-recovery solvers behind the
// SSC-family subspace clustering algorithms: an exact LARS-Lasso homotopy
// for the Lasso and elastic net (with an ORGEN-style active-set strategy
// for EnSC) and Orthogonal Matching Pursuit.
//
// The homotopy works in the Gram domain: given the dictionary Gram matrix
// G = XᵀX and correlations b = Xᵀy it minimizes
//
//	(1/2)‖y − Xc‖₂² + λ₁‖c‖₁ + (λ₂/2)‖c‖₂²
//
// without touching the ambient dimension, which is the efficient regime
// for the self-expression problems in SSC where one Gram matrix is shared
// by every column of the dataset.
package lasso

import (
	"math"
	"slices"
	"sync"

	"fedsc/internal/mat"
)

// SoftThreshold returns the soft-thresholding operator
// sign(v)·max(|v|−t, 0).
func SoftThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

// Gram solves the elastic-net problem in the Gram domain:
//
//	min_c (1/2)‖y − Xc‖² + λ₁‖c‖₁ + (λ₂/2)‖c‖₂²
//
// given g = XᵀX and b = Xᵀy, exactly, by the LARS-Lasso homotopy (the
// algorithm family of SPAMS's Lasso). Setting λ₂ = 0 gives the Lasso.
// banned lists coefficient indices pinned to zero (the self-expression
// constraint cᵢᵢ = 0); pass nil for none. The returned slice has one
// coefficient per dictionary atom.
//
// The path starts at c = 0 and λ = max|bⱼ| over the unbanned atoms and
// follows the piecewise-linear optimum down to λ₁. Each piece moves the
// active coefficients along w = (G_AA + λ₂I)⁻¹ sign(c_A), taken from a
// Cholesky factor that grows by one row when an atom joins and is
// re-triangularised by Givens rotations when one drops. A piece ends at
// the nearest of three events: an atom's residual correlation reaches the
// shrinking λ (join), an active coefficient crosses zero (drop), or λ
// reaches λ₁. On equal steps the end wins, then the lowest index. An atom
// whose pivot shows it numerically in the span of the active set is set
// aside for the rest of the solve with coefficient 0, and a cap of 8n
// path steps returns the current iterate.
func Gram(g *mat.Dense, b []float64, lambda1, lambda2 float64, banned []int) []float64 {
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
	s := statePool.Get().(*workState)
	defer statePool.Put(s)
	s.reset(n)
	pos, f := s.pos, &s.f
	r, a := s.work[:n], s.work[n:] // residual correlations b − Gc, and G_{:,A} w
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

// factor is the active set of the homotopy with the lower Cholesky factor
// of G_AA + λ₂I, packed by rows (row i starts at i(i+1)/2) so it grows
// with the active set instead of being allocated at the full n×n.
type factor struct {
	active []int     // atoms in join order
	sign   []float64 // sign of each active coefficient
	l      []float64 // packed lower Cholesky factor
	w      []float64 // (G_AA + λ₂I)⁻¹ sign
}

// workState is one solve's working state. Solves take it from statePool
// so the thousand solves of a round do not each allocate it.
type workState struct {
	pos  []int     // each atom's position in the active set, or free/out
	work []float64 // residual correlations and G_{:,A} w
	f    factor
}

var statePool = sync.Pool{New: func() any { return new(workState) }}

// reset sizes s for a solve over n atoms and empties its factor.
func (s *workState) reset(n int) {
	s.pos = slices.Grow(s.pos[:0], n)[:n]
	s.work = slices.Grow(s.work[:0], 2*n)[:2*n]
	s.f.active, s.f.sign, s.f.l = s.f.active[:0], s.f.sign[:0], s.f.l[:0]
}

func rowStart(i int) int { return i * (i + 1) / 2 }

// direction solves L Lᵀ w = sign by forward and back substitution.
func (f *factor) direction() []float64 {
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
func (f *factor) join(g *mat.Dense, j int, sign, lambda2 float64) bool {
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
func (f *factor) drop(p int) {
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

// Lasso solves min_c (1/2)‖y − Xc‖² + λ‖c‖₁ with optional banned
// coefficients by forming the Gram matrix and delegating to Gram. For
// repeated solves against one dictionary, compute the Gram once and call
// Gram directly.
func Lasso(x *mat.Dense, y []float64, lambda float64, banned []int) []float64 {
	return Gram(mat.Gram(x), mat.MulTVec(x, y), lambda, 0, banned)
}

// MaxCorrelation returns max_{j∉banned} |b[j]| where b = Xᵀy in the Gram
// domain; the Lasso solution is identically zero iff λ ≥ this value. It
// is the quantity the paper's λ rule (λᵢ = maxⱼ≠ᵢ|xⱼᵀxᵢ|/50) is built on.
func MaxCorrelation(b []float64, banned []int) float64 {
	m := 0.0
	for j, v := range b {
		if slices.Contains(banned, j) {
			continue
		}
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
