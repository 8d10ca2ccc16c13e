package mat

import (
	"math"
	"slices"
	"sync"
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
// Below parallelThreshold the kernels run inline and allocate nothing
// (see runRows), and the working copy of a and the tridiagonal come from a
// pool (see eigWork), so a small solve allocates only the Values and
// Vectors it returns.
func SymEigen(a *Dense) Eigen {
	n := a.Rows()
	if a.Cols() != n {
		panic("mat: SymEigen requires a square matrix")
	}
	if n == 0 {
		return Eigen{Values: nil, Vectors: NewDense(0, 0)}
	}
	w := getEigWork(n)
	defer eigPool.Put(w)
	copy(w.z.data, a.data)
	w.symEigen()
	vals := make([]float64, n)
	for k, i := range w.idx {
		vals[k] = w.d[i]
	}
	return Eigen{Values: vals, Vectors: w.z.SelectCols(w.idx)}
}

// eigWork is one eigensolve's working storage: the matrix being reduced
// (which ends as the unsorted eigenvectors, or as tred1's stored
// reflectors), the tridiagonal (d, e), and the scratch of the reduction,
// the QL iteration and inverse iteration. Solves take it from eigPool,
// as lasso's solves take theirs, so the many small eigensolves of a
// round reuse a few workspaces; what a solve returns is always freshly
// allocated.
type eigWork struct {
	z        Dense
	d, e, hs []float64
	g        []float64 // tred2's accumulation row, or a copy of e for a values-only QL run
	v        []float64 // inverse iteration's iterate, then the back-transform's column
	idx      []int     // ascending order of the eigenvalues in d
	rots     []planeRot
	sol      tridiagSolver
}

var eigPool = sync.Pool{New: func() any { return new(eigWork) }}

// getEigWork takes a workspace from eigPool sized for order n, every
// buffer zeroed.
func getEigWork(n int) *eigWork {
	w := eigPool.Get().(*eigWork)
	w.z = Dense{rows: n, cols: n, data: zeroed(w.z.data, n*n)}
	w.d, w.e, w.hs = zeroed(w.d, n), zeroed(w.e, n), zeroed(w.hs, n)
	w.g, w.v = zeroed(w.g, n), zeroed(w.v, n)
	w.idx = zeroed(w.idx, n)
	w.rots = slices.Grow(w.rots[:0], n)
	w.sol.resize(n)
	return w
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// symEigen decomposes the symmetric matrix in w.z in place: on return
// w.d holds the eigenvalues, the columns of w.z the eigenvectors, both
// unsorted, and w.idx their ascending order.
func (w *eigWork) symEigen() {
	if len(w.d) == 0 {
		return
	}
	w.z.Symmetrize()
	tred2(&w.z, w.d, w.e, w.g)
	tqli(w.d, w.e, &w.z, w.rots)
	w.sortValues()
}

// sortValues sets w.idx to the ascending order of w.d. The comparator
// reports only "less" (the sort consults nothing else), so ties and
// NaNs order exactly as sort.Slice with d[i] < d[j] orders them.
func (w *eigWork) sortValues() {
	for i := range w.idx {
		w.idx[i] = i
	}
	d := w.d
	slices.SortFunc(w.idx, func(i, j int) int {
		if d[i] < d[j] {
			return -1
		}
		return 0
	})
}

// tred2 reduces the symmetric matrix z to tridiagonal form, accumulating
// the orthogonal transform in z. On return d holds the diagonal and
// e[1..n-1] the subdiagonal (e[0] = 0). This is the classical
// Householder reduction (EISPACK TRED2) with the two O(n²)-per-step
// kernels — the symmetric matrix-vector product and the rank-two
// update — run as parallel blocked row updates. acc is scratch of
// length n.
func tred2(z *Dense, d, e, acc []float64) {
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
				// fully mirrored (see rankTwoRows), so each row's dot
				// product streams contiguously instead of finishing with
				// a stride down column j — the strided half of the
				// classical lower-triangle symv was the hottest
				// cache-miss site in the whole decomposition.
				lim := l + 1
				r := reflection{z: z, zi: zi, e: e, i: i, l: l, h: h, keep: true}
				runRows(lim, lim*lim, r, symvRows)
				f = 0.0
				for j := 0; j <= l; j++ {
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					e[j] -= hh * zi[j]
				}
				runRows(lim, lim*lim, r, rankTwoRows)
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
	for i := 0; i < n; i++ {
		l := i - 1
		zi := z.Row(i)
		if d[i] != 0 { //fedsc:allow floatcmp tred2 writes an exact 0 to mark a skipped transform
			lim := l + 1
			g := acc[:lim]
			for j := range g {
				g[j] = 0
			}
			for k := 0; k < lim; k++ {
				zk := z.Row(k)
				v := zi[k]
				for j := range g {
					g[j] += v * zk[j]
				}
			}
			runRows(lim, lim*lim, reflection{z: z, e: g, i: i}, accumulateRows)
		}
		d[i] = zi[i]
		zi[i] = 1.0
		for j := 0; j <= l; j++ {
			z.Row(j)[i] = 0.0
			zi[j] = 0.0
		}
	}
}

// reflection carries one Householder step's operands to its row
// kernels: the matrix z, the reflector row zi = u of step i over the
// active block [0..l], the vector e (p, then w = p − K u, in the
// reduction; the accumulation's g in accumulateRows) and the scalar h.
type reflection struct {
	z     *Dense
	zi, e []float64
	i, l  int
	h     float64
	keep  bool // tred2: store u/h in column i for the accumulation
}

// symvRows computes e[j] ← (A u)_j / h for rows j of the active block.
// Each dot product is one chain of dependent additions, so four rows run
// their chains side by side (then one, for the remainder); every sum
// still adds its terms k = 0, 1, … in order.
func symvRows(r reflection, lo, hi int) {
	z, e, h := r.z, r.e, r.h
	zi := r.zi[:r.l+1]
	if r.keep {
		for j := lo; j < hi; j++ {
			z.Row(j)[r.i] = zi[j] / h
		}
	}
	j := lo
	for ; j+3 < hi; j += 4 {
		z0, z1 := z.Row(j)[:len(zi)], z.Row(j + 1)[:len(zi)]
		z2, z3 := z.Row(j + 2)[:len(zi)], z.Row(j + 3)[:len(zi)]
		var g0, g1, g2, g3 float64
		for k, v := range zi {
			g0 += z0[k] * v
			g1 += z1[k] * v
			g2 += z2[k] * v
			g3 += z3[k] * v
		}
		e[j], e[j+1], e[j+2], e[j+3] = g0/h, g1/h, g2/h, g3/h
	}
	for ; j < hi; j++ {
		zj := z.Row(j)[:len(zi)]
		g := 0.0
		for k, v := range zi {
			g += zj[k] * v
		}
		e[j] = g / h
	}
}

// rankTwoRows applies the rank-two update A ← A − u wᵀ − w uᵀ over full
// rows of the active block, preserving its mirror symmetry exactly:
// entries (j,k) and (k,j) subtract the same two products combined by one
// IEEE addition, and both multiplication and addition commute bitwise,
// so the two sides stay bit-identical. It costs half an extra streaming
// pass versus the lower triangle alone, repaid by the symv never leaving
// row order. Rows are disjoint across workers, so the block update is
// safe and exact.
func rankTwoRows(r reflection, lo, hi int) {
	zi := r.zi[:r.l+1]
	e := r.e[:len(zi)]
	for j := lo; j < hi; j++ {
		fj := zi[j]
		gj := e[j]
		zj := r.z.Row(j)[:len(zi)]
		for k, v := range zi {
			zj[k] -= fj*e[k] + gj*v
		}
	}
}

// accumulateRows applies reflector i's rank-one update to rows [lo, hi)
// of the accumulated transform, with g = r.e over columns [0, len(g)).
func accumulateRows(r reflection, lo, hi int) {
	z, g, i := r.z, r.e, r.i
	for k := lo; k < hi; k++ {
		row := z.Row(k)
		s := row[i]
		zk := row[:len(g)]
		for j, v := range g {
			zk[j] -= v * s
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
	runRows(n, n*len(rots)*6, rotation{z, rots}, rotateRows)
}

// rotation carries a rotation buffer and its target to rotateRows.
type rotation struct {
	z    *Dense
	rots []planeRot
}

// rotateRows applies r.rots in order to rows [lo, hi) of r.z.
func rotateRows(b rotation, lo, hi int) {
	z, rots := b.z, b.rots
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
}

// tqli applies the implicit-shift QL iteration to the tridiagonal matrix
// (d, e), accumulating eigenvectors into the columns of z (which must
// contain the transform from tred2, or the identity for a tridiagonal
// input). On return d holds the eigenvalues (unsorted). The eigenvector
// rotations of each QL step are buffered and applied as one blocked,
// row-parallel pass (see applyRots). A nil z runs values only: the
// rotations never feed back into d and e, so the eigenvalues are the
// same bits either way. rots is scratch with capacity at least n.
func tqli(d, e []float64, z *Dense, rots []planeRot) {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
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
				if z != nil {
					rots = append(rots, planeRot{i: i, s: s, c: c})
				}
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
