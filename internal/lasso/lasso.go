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
//
// Its factor is the lower Cholesky factor of G_AA + λ₂I, packed by
// columns with room for a row count that doubles with the active set,
// together with the forward solve L⁻¹ sign(c_A), which a join extends by
// one entry and a drop re-solves from the dropped position on. A path
// step then costs one back substitution down contiguous columns and one
// pass of G_{:,A} w, four rows of G at a time. Every output entry comes
// from one fixed order of floating-point operations (DESIGN.md §5).
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
		mulActive(g, f.active, w, a)
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

// mulActive sets a = G_{:,A} w, four rows of G per pass over a. Each
// entry still adds its terms in active-set order, as one Axpy per row
// would.
func mulActive(g *mat.Dense, active []int, w, a []float64) {
	clear(a)
	n, k := len(a), 0
	for ; k+4 <= len(active); k += 4 {
		r0, r1, r2, r3 := g.Row(active[k])[:n], g.Row(active[k+1])[:n], g.Row(active[k+2])[:n], g.Row(active[k+3])[:n]
		w0, w1, w2, w3 := w[k], w[k+1], w[k+2], w[k+3]
		for i := range a {
			a[i] = a[i] + w0*r0[i] + w1*r1[i] + w2*r2[i] + w3*r3[i]
		}
	}
	for ; k < len(active); k++ {
		mat.Axpy(w[k], g.Row(active[k]), a)
	}
}

// factor is the active set of the homotopy with the lower Cholesky factor
// L of G_AA + λ₂I and the forward solve z = L⁻¹ sign, kept across steps.
// L is packed by columns with room for ld rows, so the triangular sweeps
// walk contiguous memory; ld doubles (up to the atom count) when the
// active set outgrows it, so the storage stays O(|A|²).
type factor struct {
	active []int     // atoms in join order
	sign   []float64 // sign of each active coefficient
	z      []float64 // L⁻¹ sign
	w      []float64 // (G_AA + λ₂I)⁻¹ sign
	row    []float64 // a joining atom's row of L
	acc    []float64 // forward-solve partial sums
	l      []float64 // L[i][k] at l[off(k)+i], off(k) = k·ld − k(k+1)/2
	ld     int
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
	s.f.active, s.f.sign, s.f.z = s.f.active[:0], s.f.sign[:0], s.f.z[:0]
}

// col returns column k of L indexed by row, up to row m−1. Only rows k..
// are stored there; the lower indices alias the column before.
func (f *factor) col(k, m int) []float64 {
	off := k*f.ld - k*(k+1)/2
	return f.l[off : off+m]
}

// direction solves Lᵀ w = z by back substitution, each row's terms
// subtracted from k = i+1 upward.
func (f *factor) direction() []float64 {
	w := append(f.w[:0], f.z...)
	m := len(w)
	for i := m - 1; i >= 0; i-- {
		col := f.col(i, m)
		s := w[i]
		for k := i + 1; k < m; k++ {
			s -= col[k] * w[k]
		}
		w[i] = s / col[i]
	}
	f.w = w
	return w
}

// solve overwrites x[p:] with entries p.. of L⁻¹x, where x[:p] is solved
// already. It runs by column axpys, yet each entry sums its terms
// t = 0, 1, … from zero, as a row dot product does.
func (f *factor) solve(x []float64, p int) {
	m := len(x)
	acc := slices.Grow(f.acc[:0], m)[:m]
	clear(acc[p:])
	for t := range m {
		col := f.col(t, m)
		if t >= p {
			x[t] = (x[t] - acc[t]) / col[t]
		}
		if lo := max(t+1, p); lo < m {
			mat.Axpy(x[t], col[lo:], acc[lo:])
		}
	}
	f.acc = acc
}

// join appends atom j with the given sign, adding one row to the factor
// in O(|A|²) and one entry to z in O(|A|). It reports false, leaving the
// factor unchanged, when the new pivot is at most 1e-12·(G_jj + λ₂): the
// atom is then numerically in the span of the active set.
func (f *factor) join(g *mat.Dense, j int, sign, lambda2 float64) bool {
	gj := g.Row(j)
	row := f.row[:0]
	for _, i := range f.active {
		row = append(row, gj[i])
	}
	f.row = row
	f.solve(row, 0)
	d := gj[j] + lambda2 - mat.Dot(row, row)
	if d <= 1e-12*(gj[j]+lambda2) {
		return false
	}
	m := len(f.active)
	if m == f.ld {
		old := *f
		f.ld = min(max(8, 2*f.ld), len(gj))
		f.l = make([]float64, f.ld*(f.ld+1)/2)
		for k := range m {
			copy(f.col(k, m)[k:], old.col(k, m)[k:])
		}
	}
	for k, v := range row {
		f.col(k, m+1)[m] = v
	}
	piv := math.Sqrt(d)
	f.col(m, m+1)[m] = piv
	f.z = append(f.z, (sign-mat.Dot(row, f.z))/piv)
	f.active = append(f.active, j)
	f.sign = append(f.sign, sign)
	return true
}

// drop removes the atom at position p. Deleting row p of L leaves rows
// p+1.. with one entry above the diagonal; Givens rotations on column
// pairs (k, k+1) zero those entries while shifting column k up a row,
// the columns left of p shift up past row p, and the emptied last column
// goes. Rows above p keep their entries, so z is re-solved from p on.
func (f *factor) drop(p int) {
	m := len(f.active)
	for k := p; k < m-1; k++ {
		ck, cn := f.col(k, m), f.col(k+1, m)
		h := math.Hypot(ck[k+1], cn[k+1])
		cs, sn := ck[k+1]/h, cn[k+1]/h
		for i := k + 1; i < m; i++ {
			x, y := ck[i], cn[i]
			ck[i-1], cn[i] = cs*x+sn*y, cs*y-sn*x
		}
	}
	for k := range p {
		ck := f.col(k, m)
		copy(ck[p:], ck[p+1:])
	}
	f.active = slices.Delete(f.active, p, p+1)
	f.sign = slices.Delete(f.sign, p, p+1)
	f.z = append(f.z[:p], f.sign[p:]...)
	f.solve(f.z, p)
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
