package mat

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// SymEigenPartial computes the k smallest eigenpairs of the symmetric
// matrix a without ever forming the full decomposition: it is
// SymEigenSmallest with vectors for all k values.
func SymEigenPartial(a *Dense, k int) Eigen { return SymEigenSmallest(a, k, nil) }

// SymEigenSmallest computes the k smallest eigenvalues of the symmetric
// matrix a, then eigenvectors for only the pick(values) smallest of
// them (all k when pick is nil) — the shape of an eigengap estimate,
// which reads the whole band of values but the vectors of the count it
// chooses. It tridiagonalizes once with the reflectors stored rather
// than accumulated (tred1). The values come from Sturm-sequence
// bisection when 2k ≤ n; otherwise, where extracting nearly every value
// one by one loses, from a values-only QL run on the same tridiagonal,
// bit-identical to SymEigen(a).Values[:k]. The vectors come from
// inverse iteration on the tridiagonal — with the cluster
// orthogonalization repeated or near-equal eigenvalues require — and an
// O(n²m) back-transform through the stored reflectors for the m vectors
// picked. The full solver pays O(n³) twice more (the transform
// accumulation and the QL rotation stream), which this path skips.
//
// Only the lower triangle of a is read; a is not modified. Eigenvalues
// are returned ascending, with the matching orthonormal eigenvectors as
// the columns of an n×m Vectors. pick must not modify its argument.
// Below parallelThreshold the solve allocates only what it returns
// (see SymEigen).
func SymEigenSmallest(a *Dense, k int, pick func(vals []float64) int) Eigen {
	n := a.Rows()
	if a.Cols() != n {
		panic("mat: SymEigenSmallest requires a square matrix")
	}
	k = min(k, n)
	if n == 0 || k <= 0 {
		return Eigen{Values: []float64{}, Vectors: NewDense(n, 0)}
	}
	w := getEigWork(n)
	defer eigPool.Put(w)
	copy(w.z.data, a.data)
	w.z.Symmetrize()
	tred1(&w.z, w.d, w.e, w.hs)
	var vals []float64
	if 2*k <= n {
		vals = bisectSmallest(w.d, w.e, k)
	} else {
		// tqli overwrites its tridiagonal; inverse iteration needs it.
		vals = append([]float64(nil), w.d...)
		copy(w.g, w.e)
		tqli(vals, w.g, nil, w.rots)
		sort.Float64s(vals)
		vals = vals[:k]
	}
	m := k
	if pick != nil {
		m = max(0, min(pick(vals), k))
	}
	vecs := NewDense(n, m)
	w.inverseIterate(vals[:m], vecs)
	backTransform(&w.z, w.hs, vecs, w.v)
	return Eigen{Values: vals, Vectors: vecs}
}

// tred1 reduces the symmetric matrix z to tridiagonal form without
// accumulating the orthogonal transform: it is the reduction loop of
// tred2 with the column writes dropped. On return d holds the diagonal,
// e[1..n-1] the subdiagonal (e[0] = 0), hs[i] the scalar h of reflector
// i (uᵀu/2 in the stored scaling; 0 marks a skipped reflector), and row
// i of z keeps the scaled reflector vector u on [0..i-1] for the
// back-transform.
func tred1(z *Dense, d, e, hs []float64) {
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
				// e[j] ← (A v)_j / h over the mirrored active block, row
				// order only — the same symv as tred2 minus the column
				// write that fed the (here absent) accumulation pass.
				lim := l + 1
				r := reflection{z: z, zi: zi, e: e, i: i, l: l, h: h}
				runRows(lim, lim*lim, r, symvRows)
				f = 0.0
				for j := 0; j <= l; j++ {
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					e[j] -= hh * zi[j]
				}
				// Rank-two update A ← A − v wᵀ − w vᵀ, full rows of the
				// active block so the mirror symmetry the symv relies on
				// is preserved exactly (see rankTwoRows).
				runRows(lim, lim*lim, r, rankTwoRows)
			}
		} else {
			e[i] = zi[l]
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	// The reflector scalars live in d so far (tred2 reuses the slot);
	// move them out and read the tridiagonal diagonal off z. Row i is
	// last touched by step i+1's rank-two update, so z[i][i] is final.
	copy(hs, d)
	for i := 0; i < n; i++ {
		d[i] = z.Row(i)[i]
	}
}

// sturmCount returns the number of eigenvalues of the tridiagonal
// (d, e) strictly below x, by counting sign changes of the Sturm
// sequence q_i = (d_i − x) − e_i²/q_{i−1}.
func sturmCount(d, e []float64, x, pivmin float64) int {
	count := 0
	q := d[0] - x
	if q < 0 {
		count++
	}
	e = e[:len(d)]
	for i := 1; i < len(d); i++ {
		den := q
		if math.Abs(den) < pivmin {
			// A vanishing pivot means x is (numerically) an eigenvalue
			// of a leading block; nudging it keeps the count monotone.
			den = math.Copysign(pivmin, den)
		}
		q = d[i] - x - e[i]*e[i]/den
		if q < 0 {
			count++
		}
	}
	return count
}

// tridiagNorm bounds the spectrum of (d, e) by the largest Gershgorin
// row bound |d_i| + |e_i| + |e_{i+1}|.
func tridiagNorm(d, e []float64) float64 {
	n := len(d)
	norm := 0.0
	for i := 0; i < n; i++ {
		r := math.Abs(d[i]) + math.Abs(e[i])
		if i+1 < n {
			r += math.Abs(e[i+1])
		}
		if r > norm {
			norm = r
		}
	}
	return norm
}

// bisectSmallest returns the k smallest eigenvalues of the tridiagonal
// (d, e), ascending, each bisected to machine precision inside its
// Gershgorin interval.
func bisectSmallest(d, e []float64, k int) []float64 {
	n := len(d)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := math.Abs(e[i])
		if i+1 < n {
			r += math.Abs(e[i+1])
		}
		if v := d[i] - r; v < lo {
			lo = v
		}
		if v := d[i] + r; v > hi {
			hi = v
		}
	}
	norm := tridiagNorm(d, e)
	pivmin := math.SmallestNonzeroFloat64
	if norm > 0 {
		pivmin = 2.3e-16 * 2.3e-16 * norm
	}
	vals := make([]float64, k)
	a0 := lo
	for j := 0; j < k; j++ {
		a, b := a0, hi
		for it := 0; it < 128 && b-a > 2.3e-16*(math.Abs(a)+math.Abs(b))+2*pivmin; it++ {
			mid := 0.5 * (a + b)
			if sturmCount(d, e, mid, pivmin) <= j {
				a = mid
			} else {
				b = mid
			}
		}
		vals[j] = 0.5 * (a + b)
		// Eigenvalue j+1 cannot lie below eigenvalue j; shrinking the
		// interval keeps the k bisections near O(k·n·log) total.
		a0 = a
	}
	return vals
}

// inverseIterate fills column j of vecs with a unit eigenvector of the
// tridiagonal (w.d, w.e) for eigenvalue vals[j]. Eigenvalues closer than
// a cluster threshold share (numerically) one invariant subspace, so
// their shifts are spread apart by a small separation and each iterate
// is orthogonalized against the cluster members already computed — the
// standard inverse-iteration treatment of repeated eigenvalues.
func (w *eigWork) inverseIterate(vals []float64, vecs *Dense) {
	d, e, v, sol := w.d, w.e, w.v, &w.sol
	n := len(d)
	norm := tridiagNorm(d, e)
	eps := 2.3e-16
	sep := eps * norm * 10
	if sep == 0 { //fedsc:allow floatcmp exact zero only for the all-zero matrix
		sep = math.SmallestNonzeroFloat64
	}
	pivmin := math.SmallestNonzeroFloat64
	if norm > 0 {
		pivmin = eps * eps * norm
	}
	// The start vectors only need to avoid being orthogonal to the
	// target eigenvector; a fixed-seed stream keeps the solver a pure
	// function of its input.
	rng := startStream{table: startTable()}
	clusterStart := 0
	shift := math.Inf(-1)
	for j := range vals {
		if j > 0 && vals[j]-vals[j-1] > sep {
			clusterStart = j
		}
		// Within a cluster, factor at shifts separated by sep so the
		// solves stay independent even for exactly repeated eigenvalues.
		want := vals[j]
		if s := shift + sep; j > clusterStart && want < s {
			want = s
		}
		shift = want
		sol.factor(d, e, want, pivmin)
		for i := range v {
			v[i] = rng.Float64() - 0.5
		}
		for it := 0; it < 5; it++ {
			sol.solve(v)
			for c := clusterStart; c < j; c++ {
				dot := 0.0
				for i := 0; i < n; i++ {
					dot += vecs.At(i, c) * v[i]
				}
				for i := 0; i < n; i++ {
					v[i] -= dot * vecs.At(i, c)
				}
			}
			growth := Normalize(v)
			if growth == 0 { //fedsc:allow floatcmp orthogonalization annihilated the iterate; restart it
				for i := range v {
					v[i] = rng.Float64() - 0.5
				}
				continue
			}
			// Growth ~1/(eps·‖T‖) marks convergence onto the
			// eigenvector; one guarded extra pass costs O(n).
			if growth > 1/(10*eps*(norm+1)) || it >= 1 && growth > 1e6 {
				break
			}
		}
		vecs.SetCol(j, v)
	}
}

// startSeed seeds the stream inverse iteration draws its start vectors
// from.
const startSeed = 0x5e1ec7ed

// startTableLen is how many draws of the start stream are kept. A solve
// draws n per vector it computes (and n more per restart): the table
// holds the eigengap's few vectors of a 30-vertex Phase 1 graph many
// times over, or 15 vectors at n = 270. A longer stream stays exact: it
// seeds a source and replays the table's draws to continue past it.
const startTableLen = 1 << 12

// startTable is the head of the start stream,
// rand.New(rand.NewSource(startSeed)).Float64() draw by draw, drawn
// once. Seeding a math/rand source fills a 607-word table, which every
// solve used to pay for to replay these same values.
var startTable = sync.OnceValue(func() []float64 {
	rng := rand.New(rand.NewSource(startSeed))
	t := make([]float64, startTableLen)
	for i := range t {
		t[i] = rng.Float64()
	}
	return t
})

// startStream replays the start stream from its first draw: from the
// table, then, past its end, from a fresh source advanced to the same
// position, so every draw is the one a fresh source would give.
type startStream struct {
	table []float64
	pos   int
	rng   *rand.Rand
}

// Float64 returns the stream's next draw.
func (s *startStream) Float64() float64 {
	if s.pos < len(s.table) {
		s.pos++
		return s.table[s.pos-1]
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(startSeed))
		for range s.pos {
			s.rng.Float64()
		}
	}
	s.pos++
	return s.rng.Float64()
}

// tridiagSolver is the LU factorization of (T − λI) with partial
// pivoting, reusable across the iterations of one eigenvalue. Pivoting
// fills in a second superdiagonal, the classic tinvit shape.
type tridiagSolver struct {
	u, v1, v2, mult []float64
	swapped         []bool
}

// resize sizes s for order n, reusing its storage.
func (s *tridiagSolver) resize(n int) {
	s.u, s.v1, s.v2, s.mult = zeroed(s.u, n), zeroed(s.v1, n), zeroed(s.v2, n), zeroed(s.mult, n)
	s.swapped = zeroed(s.swapped, n)
}

// factor computes the pivoted elimination of T − λI; near-zero pivots
// are replaced by pivmin so an exact eigenvalue shift still factors
// (the replacement is the perturbation inverse iteration thrives on).
func (s *tridiagSolver) factor(d, e []float64, lambda, pivmin float64) {
	n := len(d)
	sup := func(i int) float64 {
		if i+1 < n {
			return e[i+1]
		}
		return 0
	}
	cu, cv1, cv2 := d[0]-lambda, sup(0), 0.0
	for i := 0; i < n-1; i++ {
		sub := e[i+1]
		nd := d[i+1] - lambda
		ne := sup(i + 1)
		if math.Abs(sub) > math.Abs(cu) {
			s.u[i], s.v1[i], s.v2[i] = sub, nd, ne
			m := cu / sub
			s.mult[i], s.swapped[i] = m, true
			cu = cv1 - m*nd
			cv1 = cv2 - m*ne
			cv2 = 0
		} else {
			piv := cu
			if math.Abs(piv) < pivmin {
				piv = math.Copysign(pivmin, piv)
			}
			s.u[i], s.v1[i], s.v2[i] = piv, cv1, cv2
			m := sub / piv
			s.mult[i], s.swapped[i] = m, false
			cu = nd - m*cv1
			cv1 = ne - m*cv2
			cv2 = 0
		}
	}
	if math.Abs(cu) < pivmin {
		cu = math.Copysign(pivmin, cu)
	}
	s.u[n-1], s.v1[n-1], s.v2[n-1] = cu, 0, 0
}

// solve overwrites b with (T − λI)⁻¹ b using the stored factorization.
func (s *tridiagSolver) solve(b []float64) {
	n := len(b)
	for i := 0; i < n-1; i++ {
		if s.swapped[i] {
			b[i], b[i+1] = b[i+1], b[i]
		}
		b[i+1] -= s.mult[i] * b[i]
	}
	for i := n - 1; i >= 0; i-- {
		x := b[i]
		if i+1 < n {
			x -= s.v1[i] * b[i+1]
		}
		if i+2 < n {
			x -= s.v2[i] * b[i+2]
		}
		b[i] = x / s.u[i]
	}
}

// backTransform maps tridiagonal eigenvectors back to the original
// coordinates by applying the stored Householder reflectors P_i = I −
// u uᵀ/h ascending (Q = P_{n−1}⋯P_2 applied to v is P_2 v first), each
// supported on [0..i−1]. Cost O(n²k) against the O(n³) accumulation the
// full solver pays for all n vectors. col is scratch of length n for the
// inline branch; each worker of the parallel one allocates its own.
func backTransform(z *Dense, hs []float64, vecs *Dense, col []float64) {
	n, k := vecs.Dims()
	if inline(k, n*n*k) {
		reflectCols(z, hs, vecs, col, 0, k)
		return
	}
	Parallel(k, n*n*k, func(lo, hi int) {
		reflectCols(z, hs, vecs, make([]float64, n), lo, hi)
	})
}

// reflectCols applies the stored reflectors to columns [lo, hi) of vecs,
// one column at a time through col.
func reflectCols(z *Dense, hs []float64, vecs *Dense, col []float64, lo, hi int) {
	n := len(col)
	for j := lo; j < hi; j++ {
		vecs.Col(j, col)
		for i := 2; i < n; i++ {
			if hs[i] == 0 { //fedsc:allow floatcmp tred1 writes an exact 0 to mark a skipped reflector
				continue
			}
			ui, c := z.Row(i)[:i], col[:i]
			s := 0.0
			for t, u := range ui {
				s += u * c[t]
			}
			s /= hs[i]
			for t, u := range ui {
				c[t] -= s * u
			}
		}
		vecs.SetCol(j, col)
	}
}
