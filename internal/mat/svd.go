package mat

import (
	"math"
	"math/rand"
)

// SVD holds a thin singular value decomposition a = U * diag(S) * Vᵀ.
// S is sorted descending; U is m x r and V is n x r where r = min(m, n).
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// SVDFactor computes the thin SVD of a by the one-sided Jacobi method,
// which orthogonalizes the columns of a working copy with plane
// rotations. The working copy is held transposed so every rotation
// streams over two contiguous rows, and each sweep visits the column
// pairs in round-robin (cyclic-pairs) order: the pairs of one round are
// disjoint, so their rotations commute exactly and run across
// GOMAXPROCS workers without changing the result. a is not modified.
func SVDFactor(a *Dense) SVD {
	m, n := a.Dims()
	if m < n {
		// Jacobi works on columns; run on the transpose and swap factors.
		s := SVDFactor(a.T())
		return SVD{U: s.V, S: s.S, V: s.U}
	}
	return jacobiSVD(a, true)
}

// SingularValues returns the singular values of a, sorted descending.
// It runs the same one-sided Jacobi iteration as SVDFactor but skips
// the right-factor accumulation, which callers that only need the
// spectrum (principal angles, rank probes) would pay for nothing.
func SingularValues(a *Dense) []float64 {
	if a.Rows() < a.Cols() {
		a = a.T()
	}
	return jacobiSVD(a, false).S
}

// jacobiSVD is the one-sided Jacobi kernel behind SVDFactor and
// SingularValues. It requires m >= n; wantV selects accumulation of the
// right singular vectors (when false the returned SVD has V == nil and
// U is still produced).
func jacobiSVD(a *Dense, wantV bool) SVD {
	m, n := a.Dims()
	ut := a.T() // row j holds working column j of a
	var vt *Dense
	if wantV {
		vt = Identity(n) // row j holds column j of V
	}
	const maxSweeps = 60
	const eps = 1e-14
	// Round-robin tournament over the columns: N slots (one bye slot when
	// n is odd), N-1 rounds per sweep, N/2 disjoint pairs per round.
	N := n
	if N%2 == 1 {
		N++
	}
	pairs := N / 2
	offs := make([]float64, pairs)
	rotatePair := func(p, q int) float64 {
		up, uq := ut.Row(p), ut.Row(q)
		var alpha, beta, gamma float64
		for i, v := range up {
			w := uq[i]
			alpha += v * v
			beta += w * w
			gamma += v * w
		}
		if alpha == 0 || beta == 0 { //fedsc:allow floatcmp column norms are exactly zero iff a column is exactly zero
			return 0
		}
		if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
			return 0
		}
		// Jacobi rotation zeroing the (p,q) Gram entry.
		zeta := (beta - alpha) / (2.0 * gamma)
		var t float64
		if zeta > 0 {
			t = 1.0 / (zeta + math.Sqrt(1.0+zeta*zeta))
		} else {
			t = -1.0 / (-zeta + math.Sqrt(1.0+zeta*zeta))
		}
		c := 1.0 / math.Sqrt(1.0+t*t)
		s := c * t
		for i, v := range up {
			w := uq[i]
			up[i] = c*v - s*w
			uq[i] = s*v + c*w
		}
		if vt != nil {
			vp, vq := vt.Row(p), vt.Row(q)
			for i, v := range vp {
				w := vq[i]
				vp[i] = c*v - s*w
				vq[i] = s*v + c*w
			}
		}
		return math.Abs(gamma)
	}
	workPerRound := pairs * (7*m + 4*n)
	// One closure serves every round of every sweep: a literal built per
	// round would cost a heap allocation each time it escapes into
	// Parallel, which dominated the allocations of small matrices.
	var round int
	rotateRound := func(lo, hi int) {
		for slot := lo; slot < hi; slot++ {
			p, q := roundRobinPair(round, slot, N)
			if p >= n || q >= n { // bye slot for odd n
				offs[slot] = 0
				continue
			}
			offs[slot] = rotatePair(p, q)
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for round = 0; round < N-1; round++ {
			Parallel(pairs, workPerRound, rotateRound)
			// Sum the off-diagonal mass in slot order so the convergence
			// test is deterministic regardless of scheduling.
			for _, v := range offs {
				off += v
			}
		}
		if off == 0 { //fedsc:allow floatcmp early exit when every off-diagonal is exactly zero; the eps test above handles the rest
			break
		}
	}
	// Singular values are the norms of the rotated columns (rows of ut).
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		sv[j] = Norm2(ut.Row(j))
	}
	// Sort descending, permuting U and V accordingly, and normalize U.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ { // simple selection sort: n is small
		best := i
		for j := i + 1; j < n; j++ {
			if sv[order[j]] > sv[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	s := make([]float64, n)
	u := NewDense(m, n)
	for k, j := range order {
		s[k] = sv[j]
		inv := 0.0
		if sv[j] > 0 {
			inv = 1 / sv[j]
		}
		for i, v := range ut.Row(j) {
			u.data[i*n+k] = v * inv
		}
	}
	var v *Dense
	if wantV {
		v = NewDense(n, n)
		for k, j := range order {
			for i, val := range vt.Row(j) {
				v.data[i*n+k] = val
			}
		}
	}
	return SVD{U: u, S: s, V: v}
}

// roundRobinPair returns the column pair of the given slot in the given
// round of the circle-method tournament over N (even) slots: slot 0 is
// fixed, the others rotate, and slot i meets slot N-1-i.
func roundRobinPair(round, slot, N int) (int, int) {
	seat := func(i int) int {
		if i == 0 {
			return 0
		}
		return 1 + (i-1+round)%(N-1)
	}
	p, q := seat(slot), seat(N-1-slot)
	if p > q {
		p, q = q, p
	}
	return p, q
}

// Dispatch constants for TruncatedSVD. The randomized range finder pays
// off once the sketch width k + oversampling fits well inside the
// spectrum; below that the exact solvers are both cheaper and simpler.
const (
	randSVDOversample = 8
	randSVDMinDim     = 24
	randSVDMaxIters   = 8
	randSVDTol        = 1e-12
	// randSVDSeed seeds the Gaussian sketch. A fixed seed keeps
	// TruncatedSVD a pure, deterministic function of its input, which the
	// federated pipeline relies on for reproducible runs under a fixed
	// top-level *rand.Rand seed.
	randSVDSeed = 0x5ce1e55
)

// TruncatedSVD returns the k leading left singular vectors and singular
// values of a, matching the paper's use of truncated SVD for per-cluster
// basis estimation (footnote 3). For k well below min(m, n) it uses a
// Halko-style randomized range finder (Gaussian sketch plus blocked
// power iterations with QR re-orthonormalization, stopped early once the
// sketched spectrum is stationary); small or near-square problems fall
// back to the exact solvers (Gram-matrix eigendecomposition for tall
// matrices, one-sided Jacobi otherwise). The result is deterministic.
func TruncatedSVD(a *Dense, k int) (u *Dense, s []float64) {
	return truncatedSVD(a, k, nil)
}

// TruncatedSVDPick is TruncatedSVD(a, pick(σ)) for the singular values σ
// of a, descending: the rank is read off a's own spectrum. σ is the
// square root of the clamped eigenvalues of the smaller Gram matrix
// (aᵀa, or aaᵀ for a wide a), so its rounding floor sits near 1e-8·σ₀
// rather than Jacobi's 1e-16·σ₀. Where TruncatedSVD takes its exact
// Gram path, the same eigendecomposition also yields the factors, so a
// is factorized once and the result is bit-identical to TruncatedSVD.
func TruncatedSVDPick(a *Dense, pick func(sigma []float64) int) (*Dense, []float64) {
	m, n := a.Dims()
	r := min(m, n)
	w := getEigWork(r)
	defer eigPool.Put(w)
	if n <= m {
		gramInto(&w.z, a)
	} else {
		mulBTInto(&w.z, a, a)
	}
	w.symEigen()
	sigma := make([]float64, r)
	for i, j := range w.idx {
		sigma[r-1-i] = math.Sqrt(math.Max(w.d[j], 0))
	}
	gram := w
	if n > m {
		gram = nil // a wide a takes its factors from Jacobi
	}
	return truncatedSVD(a, pick(sigma), gram)
}

// truncatedSVD is TruncatedSVD with gram, when non-nil, the
// eigendecomposition of Gram(a) already in hand for the exact path (as
// eigWork.symEigen leaves it).
func truncatedSVD(a *Dense, k int, gram *eigWork) (*Dense, []float64) {
	m, n := a.Dims()
	r := min(m, n)
	k = min(k, r)
	if k == 0 {
		return NewDense(m, 0), nil
	}
	if r >= randSVDMinDim && 2*(k+randSVDOversample) <= r {
		return randomizedSVD(a, k)
	}
	if n <= m {
		// Eigendecomposition of the n x n Gram matrix: a = U S Vᵀ with
		// aᵀa = V S² Vᵀ, U = a V S⁻¹.
		if gram == nil {
			gram = getEigWork(n)
			defer eigPool.Put(gram)
			gramInto(&gram.z, a)
			gram.symEigen()
		}
		idx := make([]int, 0, k)
		vals := make([]float64, 0, k)
		for i := n - 1; i >= 0 && len(idx) < k; i-- { // largest first
			j := gram.idx[i]
			idx = append(idx, j)
			ev := gram.d[j]
			if ev < 0 {
				ev = 0
			}
			vals = append(vals, math.Sqrt(ev))
		}
		v := gram.z.SelectCols(idx)
		u := Mul(a, v)
		// Normalize the columns of U in one pass over the matrix instead
		// of a per-column extract/normalize/write round trip.
		norms := ColNorms(u)
		for j, nv := range norms {
			if nv > 0 {
				norms[j] = 1 / nv
			}
		}
		for i := 0; i < m; i++ {
			row := u.Row(i)
			for j, inv := range norms {
				if inv > 0 {
					row[j] *= inv
				}
			}
		}
		return u, vals
	}
	svd := SVDFactor(a)
	return svd.U.SliceCols(0, k), svd.S[:k]
}

// randomizedSVD computes the k leading left singular pairs by subspace
// iteration on a Gaussian sketch (Halko, Martinsson & Tropp 2011): draw
// Ω ~ N(0,1)^{n x l} with l = k + oversampling, orthonormalize Y = AΩ,
// and refine with power iterations Q ← orth(A·orth(AᵀQ)) until the
// captured energy ‖QᵀA‖_F — which the projection Z = AᵀQ yields for free —
// is stationary. Column-wise estimates converge only at the slow per-mode
// rate σⱼ₊₁/σⱼ, but the Frobenius capture is invariant to rotations inside
// range(Q) and stabilizes as soon as the subspace itself has: for an
// exact-rank input it is stationary after a single power step. The
// transposed projection Z = Bᵀ with B = QᵀA is already in hand when the
// loop stops, so its small exact SVD delivers the leading factors on
// range(Q) with no further products: Z = Uz Sz Vzᵀ gives A ≈ (Q Vz) Sz Uzᵀ.
func randomizedSVD(a *Dense, k int) (*Dense, []float64) {
	n := a.Cols()
	l := k + randSVDOversample // dispatch guarantees l <= min(m,n)/2
	rng := rand.New(rand.NewSource(randSVDSeed))
	omega := RandomGaussian(n, l, rng)
	q := QRFactor(Mul(a, omega)).Q // m x l
	prev := 0.0
	var z *Dense
	for it := 0; ; it++ {
		z = MulTA(a, q) // n x l, z = Bᵀ for the current range estimate
		captured := 0.0
		for i := 0; i < n; i++ {
			for _, v := range z.Row(i) {
				captured += v * v
			}
		}
		if it == randSVDMaxIters || (it > 0 && captured-prev <= randSVDTol*captured) {
			break
		}
		prev = captured
		q = QRFactor(Mul(a, QRFactor(z).Q)).Q
	}
	sz := SVDFactor(z) // z is tall (l <= n/2), so this is a small Jacobi run
	u := Mul(q, sz.V.SliceCols(0, k))
	return u, sz.S[:k]
}

// NumericalRank estimates the number of singular values of a exceeding
// tol * max singular value. It runs Householder QR with column pivoting
// and stops as soon as the pivot magnitude |R_kk| — which tracks σ_k
// within a modest polynomial factor (rank-revealing QR) — falls to
// tol·|R₀₀|, so a rank-d matrix costs O(m·n·d) instead of a full
// factorization. For the decisively gapped spectra this code probes
// (exact subspace data against tolerances like 1e-9) the count matches
// the singular-value definition.
func NumericalRank(a *Dense, tol float64) int {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return 0
	}
	// Work on rows-as-columns of the taller orientation so every column
	// operation is contiguous; rank is transpose-invariant.
	var w *Dense
	if m >= n {
		w = a.T()
	} else {
		w = a.Clone()
	}
	nc := w.Rows() // columns of the factored matrix
	vl := w.Cols() // their length (>= nc)
	norms2 := make([]float64, nc)
	orig2 := make([]float64, nc)
	for j := 0; j < nc; j++ {
		row := w.Row(j)
		norms2[j] = Dot(row, row)
		orig2[j] = norms2[j]
	}
	perm := make([]int, nc)
	for i := range perm {
		perm[i] = i
	}
	var sigma0 float64
	for k := 0; k < nc; k++ {
		// Pivot: bring the largest remaining column (by tracked tail
		// norm) to position k.
		best := k
		for j := k + 1; j < nc; j++ {
			if norms2[perm[j]] > norms2[perm[best]] {
				best = j
			}
		}
		perm[k], perm[best] = perm[best], perm[k]
		col := w.Row(perm[k])
		alpha := 0.0
		for i := k; i < vl; i++ {
			alpha += col[i] * col[i]
		}
		alpha = math.Sqrt(alpha)
		if k == 0 {
			sigma0 = alpha
			if sigma0 == 0 { //fedsc:allow floatcmp leading pivot norm is exactly zero iff the matrix is exactly zero
				return 0
			}
		}
		if alpha <= tol*sigma0 {
			return k
		}
		if k == vl-1 || k == nc-1 {
			// Last possible pivot accepted; no trailing block remains.
			return k + 1
		}
		// Householder vector for the pivot column, normalized so v[k]=1.
		if col[k] > 0 {
			alpha = -alpha
		}
		vkk := col[k] - alpha
		col[k] = alpha
		for i := k + 1; i < vl; i++ {
			col[i] /= vkk
		}
		tau := -vkk / alpha
		// Apply the reflector to the trailing columns and downdate their
		// tail norms, recomputing when cancellation makes the downdated
		// value untrustworthy.
		for jj := k + 1; jj < nc; jj++ {
			pj := perm[jj]
			cj := w.Row(pj)
			s := cj[k]
			for i := k + 1; i < vl; i++ {
				s += col[i] * cj[i]
			}
			s *= tau
			cj[k] -= s
			for i := k + 1; i < vl; i++ {
				cj[i] -= s * col[i]
			}
			t := norms2[pj] - cj[k]*cj[k]
			if t < 1e-10*orig2[pj] {
				t = 0
				for i := k + 1; i < vl; i++ {
					t += cj[i] * cj[i]
				}
			}
			norms2[pj] = t
		}
	}
	return nc
}
