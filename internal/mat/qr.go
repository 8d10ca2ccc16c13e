package mat

import "math"

// QR holds the thin QR factorization a = Q*R of an m x n matrix with
// m >= n: Q is m x n with orthonormal columns and R is n x n upper
// triangular.
type QR struct {
	Q *Dense
	R *Dense
}

// QRFactor computes the thin QR factorization of a (m >= n) by
// Householder reflections. a is not modified.
//
// Internally the factorization runs on the transpose, so each column of a
// is a contiguous row of the workspace: computing a reflector, applying
// it to the trailing columns, and accumulating Q all stream over
// contiguous memory instead of striding down column entries.
func QRFactor(a *Dense) QR {
	m, n := a.Dims()
	if m < n {
		panic("mat: QRFactor requires rows >= cols")
	}
	// Row j of wt is column j of a; v-vectors are stored past the diagonal
	// position of each row and the scalar factors in tau.
	wt := a.T()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the Householder vector for column k.
		wk := wt.Row(k)
		alpha := 0.0
		for i := k; i < m; i++ {
			alpha += wk[i] * wk[i]
		}
		alpha = math.Sqrt(alpha)
		if alpha == 0 { //fedsc:allow floatcmp column norm is exactly zero iff the column is exactly zero
			tau[k] = 0
			continue
		}
		if wk[k] > 0 {
			alpha = -alpha
		}
		// v = x - alpha*e1, normalized so v[k] = 1.
		vkk := wk[k] - alpha
		for i := k + 1; i < m; i++ {
			wk[i] /= vkk
		}
		tau[k] = -vkk / alpha
		wk[k] = alpha
		// Apply the reflector to the trailing columns; each trailing
		// column is updated independently, so the loop blocks across
		// workers for wide factorizations.
		runRows(n-k-1, (n-k)*(m-k)*2, householder{wt, wk, tau[k], k, k + 1}, reflectRows)
	}
	// Extract R.
	r := NewDense(n, n)
	for i := 0; i < n; i++ {
		ri := r.Row(i)
		for j := i; j < n; j++ {
			ri[j] = wt.Row(j)[i]
		}
	}
	// Accumulate thin Q by applying the reflectors to the identity,
	// also in transposed layout: row j of qt is column j of Q.
	qt := NewDense(n, m)
	for j := 0; j < n; j++ {
		qt.Row(j)[j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if tau[k] == 0 { //fedsc:allow floatcmp tau=0 is the exact identity-reflector sentinel written above
			continue
		}
		runRows(n, n*(m-k)*2, householder{qt, wt.Row(k), tau[k], k, 0}, reflectRows)
	}
	return QR{Q: qt.T(), R: r}
}

// householder carries reflector k (vector w, below its unit entry k,
// and scalar tau) to reflectRows, which applies it to rows off+lo ..
// off+hi−1 of dst, each row one transposed column.
type householder struct {
	dst    *Dense
	w      []float64
	tau    float64
	k, off int
}

func reflectRows(h householder, lo, hi int) {
	wk, k, m := h.w, h.k, len(h.w)
	for j := h.off + lo; j < h.off+hi; j++ {
		wj := h.dst.Row(j)
		s := wj[k]
		for i := k + 1; i < m; i++ {
			s += wk[i] * wj[i]
		}
		s *= h.tau
		wj[k] -= s
		for i := k + 1; i < m; i++ {
			wj[i] -= s * wk[i]
		}
	}
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a, discarding numerically dependent columns. The rank
// detected at relative tolerance tol (e.g. 1e-10) determines the output
// width.
func Orthonormalize(a *Dense, tol float64) *Dense {
	qr := QRFactor(a)
	n := a.Cols()
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(qr.R.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag == 0 { //fedsc:allow floatcmp max |R diagonal| is exactly zero iff the matrix is exactly zero
		return NewDense(a.Rows(), 0)
	}
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if math.Abs(qr.R.At(i, i)) > tol*maxDiag {
			keep = append(keep, i)
		}
	}
	return qr.Q.SelectCols(keep)
}

// SolveUpperTriangular solves R*x = b for upper-triangular R by back
// substitution. Panics if R has a zero diagonal entry.
func SolveUpperTriangular(r *Dense, b []float64) []float64 {
	n := r.Rows()
	if r.Cols() != n || len(b) != n {
		panic("mat: SolveUpperTriangular dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 { //fedsc:allow floatcmp only an exactly zero pivot makes the back-substitution undefined
			panic("mat: SolveUpperTriangular singular matrix")
		}
		x[i] = s / d
	}
	return x
}

// LeastSquares returns the minimizer of ||a*x - b||₂ via thin QR.
// a must have at least as many rows as columns and full column rank.
func LeastSquares(a *Dense, b []float64) []float64 {
	qr := QRFactor(a)
	qtb := MulTVec(qr.Q, b)
	return SolveUpperTriangular(qr.R, qtb)
}
