package mat

import (
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a real symmetric matrix:
// a = V * diag(Values) * Vᵀ with Values sorted ascending and the columns
// of Vectors holding the corresponding orthonormal eigenvectors.
type Eigen struct {
	Values  []float64
	Vectors *Dense
}

// SymEigen computes the full eigendecomposition of the symmetric matrix a
// by Householder tridiagonalization followed by the implicit-shift QL
// iteration. Only the lower triangle of a is read. a is not modified.
//
// The O(n³) inner kernels — the rank-two updates of the reduction and the
// eigenvector rotations of the QL iteration — run as blocked row updates
// across GOMAXPROCS workers; every parallel block owns a disjoint set of
// rows and performs the same scalar operations in the same order as the
// serial loop, so the result is identical regardless of scheduling.
func SymEigen(a *Dense) Eigen {
	n := a.Rows()
	if a.Cols() != n {
		panic("mat: SymEigen requires a square matrix")
	}
	if n == 0 {
		return Eigen{Values: nil, Vectors: NewDense(0, 0)}
	}
	z := a.Clone()
	z.Symmetrize()
	d := make([]float64, n) // diagonal
	e := make([]float64, n) // off-diagonal
	tred2(z, d, e)
	tqli(d, e, z)
	// Sort eigenpairs ascending.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	vals := make([]float64, n)
	for k, i := range idx {
		vals[k] = d[i]
	}
	return Eigen{Values: vals, Vectors: z.SelectCols(idx)}
}

// tred2 reduces the symmetric matrix z to tridiagonal form, accumulating
// the orthogonal transform in z. On return d holds the diagonal and
// e[1..n-1] the subdiagonal (e[0] = 0). This is the classical
// Householder reduction (EISPACK TRED2) with the two O(n²)-per-step
// kernels — the symmetric matrix-vector product and the rank-two
// update — run as parallel blocked row updates.
func tred2(z *Dense, d, e []float64) {
	n := len(d)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		zi := z.Row(i)
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(zi[k])
			}
			if scale == 0 { //fedsc:allow floatcmp sum of |entries| is exactly zero iff the row is exactly zero
				e[i] = zi[l]
			} else {
				for k := 0; k <= l; k++ {
					zi[k] /= scale
					h += zi[k] * zi[k]
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				// e[j] ← (A v)_j / h. The active block [0..l]² is kept
				// fully mirrored (see the rank-two update below), so each
				// row's dot product streams contiguously instead of
				// finishing with a stride down column j — the strided
				// half of the classical lower-triangle symv was the
				// hottest cache-miss site in the whole decomposition.
				lim := l + 1
				Parallel(lim, lim*lim, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						zj := z.Row(j)
						zj[i] = zi[j] / h
						g := 0.0
						for k := 0; k <= l; k++ {
							g += zj[k] * zi[k]
						}
						e[j] = g / h
					}
				})
				f = 0.0
				for j := 0; j <= l; j++ {
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					e[j] -= hh * zi[j]
				}
				// Rank-two update A ← A − v wᵀ − w vᵀ over full rows
				// of the active block, preserving its mirror symmetry
				// exactly: entries (j,k) and (k,j) subtract the same two
				// products combined by one IEEE addition, and both
				// multiplication and addition commute bitwise, so the two
				// sides stay bit-identical. Costs half an extra streaming
				// pass versus the lower triangle alone, repaid by the symv
				// above never leaving row order. Rows are disjoint across
				// workers, so the block update is safe and exact.
				Parallel(lim, lim*lim, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						fj := zi[j]
						gj := e[j]
						zj := z.Row(j)
						for k := 0; k <= l; k++ {
							zj[k] -= fj*e[k] + gj*zi[k]
						}
					}
				})
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	// Accumulate the transform: for each reflector, a matrix-vector
	// product against the already-accumulated block followed by a rank-one
	// update, blocked over rows.
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		l := i - 1
		zi := z.Row(i)
		if d[i] != 0 { //fedsc:allow floatcmp tred2 writes an exact 0 to mark a skipped transform
			lim := l + 1
			for j := 0; j < lim; j++ {
				g[j] = 0
			}
			for k := 0; k < lim; k++ {
				zk := z.Row(k)
				v := zi[k]
				for j := 0; j < lim; j++ {
					g[j] += v * zk[j]
				}
			}
			Parallel(lim, lim*lim, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					zk := z.Row(k)
					s := zk[i]
					for j := 0; j < lim; j++ {
						zk[j] -= g[j] * s
					}
				}
			})
		}
		d[i] = zi[i]
		zi[i] = 1.0
		for j := 0; j <= l; j++ {
			z.Row(j)[i] = 0.0
			zi[j] = 0.0
		}
	}
}

// planeRot is one Givens rotation of the QL iteration, acting on columns
// i and i+1 of the eigenvector matrix.
type planeRot struct {
	i    int
	s, c float64
}

// applyRots applies a buffered sequence of plane rotations to z. Each row
// of z is updated independently with the rotations in buffer order, so
// the work splits across workers by rows while performing exactly the
// per-element operations of the eager column-by-column loop — and streams
// contiguously over each row instead of striding down columns.
func applyRots(z *Dense, rots []planeRot) {
	if z == nil || len(rots) == 0 {
		return
	}
	n := z.Rows()
	Parallel(n, n*len(rots)*6, func(lo, hi int) {
		// Successive rotations overlap (rotation i reads the element
		// rotation i+1 just wrote), so a single row is one long dependency
		// chain. Eight rows march through the rotation sequence together
		// (then four, then one, for the remainder) to give the pipeline
		// independent work at each step; eight keeps every FMA port busy
		// through the multiply-add latency without spilling registers.
		k := lo
		for ; k+7 < hi; k += 8 {
			r0, r1, r2, r3 := z.Row(k), z.Row(k+1), z.Row(k+2), z.Row(k+3)
			r4, r5, r6, r7 := z.Row(k+4), z.Row(k+5), z.Row(k+6), z.Row(k+7)
			for _, r := range rots {
				i, s, c := r.i, r.s, r.c
				f0 := r0[i+1]
				r0[i+1] = s*r0[i] + c*f0
				r0[i] = c*r0[i] - s*f0
				f1 := r1[i+1]
				r1[i+1] = s*r1[i] + c*f1
				r1[i] = c*r1[i] - s*f1
				f2 := r2[i+1]
				r2[i+1] = s*r2[i] + c*f2
				r2[i] = c*r2[i] - s*f2
				f3 := r3[i+1]
				r3[i+1] = s*r3[i] + c*f3
				r3[i] = c*r3[i] - s*f3
				f4 := r4[i+1]
				r4[i+1] = s*r4[i] + c*f4
				r4[i] = c*r4[i] - s*f4
				f5 := r5[i+1]
				r5[i+1] = s*r5[i] + c*f5
				r5[i] = c*r5[i] - s*f5
				f6 := r6[i+1]
				r6[i+1] = s*r6[i] + c*f6
				r6[i] = c*r6[i] - s*f6
				f7 := r7[i+1]
				r7[i+1] = s*r7[i] + c*f7
				r7[i] = c*r7[i] - s*f7
			}
		}
		for ; k+3 < hi; k += 4 {
			r0, r1, r2, r3 := z.Row(k), z.Row(k+1), z.Row(k+2), z.Row(k+3)
			for _, r := range rots {
				i, s, c := r.i, r.s, r.c
				f0 := r0[i+1]
				r0[i+1] = s*r0[i] + c*f0
				r0[i] = c*r0[i] - s*f0
				f1 := r1[i+1]
				r1[i+1] = s*r1[i] + c*f1
				r1[i] = c*r1[i] - s*f1
				f2 := r2[i+1]
				r2[i+1] = s*r2[i] + c*f2
				r2[i] = c*r2[i] - s*f2
				f3 := r3[i+1]
				r3[i+1] = s*r3[i] + c*f3
				r3[i] = c*r3[i] - s*f3
			}
		}
		for ; k < hi; k++ {
			row := z.Row(k)
			for _, r := range rots {
				f := row[r.i+1]
				row[r.i+1] = r.s*row[r.i] + r.c*f
				row[r.i] = r.c*row[r.i] - r.s*f
			}
		}
	})
}

// tqli applies the implicit-shift QL iteration to the tridiagonal matrix
// (d, e), accumulating eigenvectors into the columns of z (which must
// contain the transform from tred2, or the identity for a tridiagonal
// input). On return d holds the eigenvalues (unsorted). The eigenvector
// rotations of each QL step are buffered and applied as one blocked,
// row-parallel pass (see applyRots). A nil z runs values only: the
// rotations never feed back into d and e, so the eigenvalues are the
// same bits either way.
func tqli(d, e []float64, z *Dense) {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	rots := make([]planeRot, 0, n)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64+dd*2.3e-16 {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 50 {
				// Convergence failure is essentially impossible for the
				// well-conditioned Laplacians and Gram matrices we feed in;
				// accept the current estimate rather than abort.
				break
			}
			g := (d[l+1] - d[l]) / (2.0 * e[l])
			r := math.Hypot(g, 1.0)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[m] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			rots = rots[:0]
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 { //fedsc:allow floatcmp hypot underflow sentinel from the QL recurrence
					d[i+1] -= p
					e[m] = 0.0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2.0*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				rots = append(rots, planeRot{i: i, s: s, c: c})
			}
			applyRots(z, rots)
			if r == 0 && m-1 >= l { //fedsc:allow floatcmp hypot underflow sentinel from the QL recurrence
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0.0
		}
	}
}
