// Package spectral implements normalized spectral clustering (von Luxburg
// 2007) on sparse affinity graphs, together with the eigengap heuristic
// the Fed-SC paper uses to estimate the number of local clusters (Eq. 3).
package spectral

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"fedsc/internal/kmeans"
	"fedsc/internal/mat"
	"fedsc/internal/sparse"
)

// denseEigCutoff is the graph size above which the bottom-of-spectrum
// computation switches from a full dense eigendecomposition to Lanczos on
// the normalized affinity operator. The blocked/pipelined SymEigen
// kernels run ~1.8x faster than the original serial loops while the
// Lanczos path is unchanged, which moves the measured crossover up by
// roughly the cube root of that speedup (the dense solver is O(n³)).
const denseEigCutoff = 270

// LaplacianEigs returns the k smallest eigenvalues (ascending) of the
// symmetric normalized Laplacian L = I − D^{−1/2} W D^{−1/2} of the
// affinity matrix w, with the corresponding eigenvectors as columns.
// Zero-degree vertices are treated as having unit degree, which leaves
// them as isolated components with Laplacian eigenvalue 1.
func LaplacianEigs(w *sparse.CSR, k int, rng *rand.Rand) ([]float64, *mat.Dense) {
	n, _ := w.Dims()
	if k > n {
		k = n
	}
	m := normalizedAffinity(w)
	if n <= denseEigCutoff {
		buf := laplacianPool.Get().(*[]float64)
		defer laplacianPool.Put(buf)
		dense := denseLaplacian(m, buf)
		// Embeddings want k ≪ n eigenpairs; the partial solver skips the
		// full solver's transform accumulation and QL sweep in that
		// regime. Eigengap estimation asks for k ≈ n, where extracting
		// nearly every pair one by one loses to the full decomposition.
		if 2*k <= n {
			eig := mat.SymEigenPartial(dense, k)
			return clampEigs(eig.Values), eig.Vectors
		}
		eig := mat.SymEigen(dense)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		return clampEigs(eig.Values[:k]), eig.Vectors.SelectCols(idx)
	}
	// Largest eigenpairs of the normalized affinity are the smallest of
	// the Laplacian: L = I − M. Shift by +1 to keep the operator PSD-ish
	// so Lanczos targets a well-separated top of the spectrum.
	matvec := func(x, y []float64) {
		m.MulVec(x, y)
		for i := range y {
			y[i] += x[i]
		}
	}
	// The bottom Laplacian eigenvalues of a near-block-diagonal affinity
	// form a tight band, which Lanczos resolves slowly; generous Krylov
	// depth (cheap next to a dense solve) keeps the embedding accurate.
	steps := 4*k + 120
	if steps > n {
		steps = n
	}
	vals, vecs := sparse.Lanczos(n, k, steps, matvec, rng)
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = 2 - v // eigenvalue of L from eigenvalue v of M+I
	}
	return clampEigs(out), vecs
}

// clampEigs snaps tiny negative rounding errors to zero; normalized
// Laplacian eigenvalues live in [0, 2].
func clampEigs(v []float64) []float64 {
	for i := range v {
		if v[i] < 0 && v[i] > -1e-9 {
			v[i] = 0
		}
	}
	return v
}

// normalizedAffinity returns D^{-1/2} W D^{-1/2}.
func normalizedAffinity(w *sparse.CSR) *sparse.CSR {
	dinv := invSqrtDegrees(w)
	return w.DiagScale(dinv, dinv)
}

// laplacianPool holds the storage of dense Laplacians: the eigensolvers
// copy their input and keep none of it, so one buffer serves every solve
// of a worker.
var laplacianPool = sync.Pool{New: func() any { return new([]float64) }}

// denseLaplacian returns L = I − m for the normalized affinity m, stored
// in buf (taken from laplacianPool), which the caller returns to the
// pool once L has been read.
func denseLaplacian(m *sparse.CSR, buf *[]float64) *mat.Dense {
	n, _ := m.Dims()
	*buf = slices.Grow((*buf)[:0], n*n)[:n*n]
	clear(*buf)
	dense := mat.NewDenseData(n, n, *buf)
	for i := 0; i < n; i++ {
		dense.Set(i, i, 1)
		m.Row(i, func(j int, v float64) {
			dense.Add(i, j, -v)
		})
	}
	dense.Symmetrize()
	return dense
}

func invSqrtDegrees(w *sparse.CSR) []float64 {
	d := w.RowSums()
	for i, v := range d {
		if v <= 0 {
			d[i] = 1
		} else {
			d[i] = 1 / math.Sqrt(v)
		}
	}
	return d
}

// Cluster segments the n vertices of the affinity graph w into k groups by
// normalized spectral clustering: it embeds each vertex with the k bottom
// eigenvectors of the normalized Laplacian, row-normalizes the embedding,
// and runs k-means++ on the rows.
func Cluster(w *sparse.CSR, k int, rng *rand.Rand) []int {
	n, _ := w.Dims()
	if k <= 1 || n == 0 {
		return make([]int, n)
	}
	if k >= n {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return labels
	}
	_, vecs := LaplacianEigs(w, k, rng)
	emb := vecs.Clone()
	normalizeEmbedding(emb)
	res := kmeans.Run(emb, k, rng, kmeans.Options{Restarts: 8})
	return res.Labels
}

// normalizeEmbedding scales every row of the spectral embedding to unit
// norm. A zero-degree (isolated) vertex is untouched by the bottom-band
// eigenvectors, so its row comes out all-zero; mat.Normalize would leave
// it at the origin, equidistant from every centroid, a tie the k-means
// rng decides. Zero rows instead copy the unit row of the first vertex
// whose row is not zero, so isolated vertices join that vertex's
// cluster. A fixed point such as e₀ would depend on the solver: a
// repeated eigenvalue (disconnected blocks) has any orthonormal basis of
// its eigenspace as eigenvectors, and e₀ could land with one block or
// across from both, merging them. A copied row rotates with the basis,
// and k-means does not see rotations. The zero test is a tolerance:
// iterative eigensolvers leave O(machine-eps) noise in structurally-zero
// rows, while columns are unit vectors, so signal rows are far above it.
func normalizeEmbedding(emb *mat.Dense) {
	const zeroRow = 1e-8
	r, c := emb.Dims()
	anchor := make([]float64, c)
	anchor[0] = 1 // only if every row is zero
	var zero []int
	for i := r - 1; i >= 0; i-- {
		row := emb.Row(i)
		if mat.Norm2(row) < zeroRow {
			zero = append(zero, i)
			continue
		}
		mat.Normalize(row)
		anchor = row
	}
	for _, i := range zero {
		copy(emb.Row(i), anchor)
	}
}

// EstimateAndCluster estimates the cluster count r and clusters over one
// Laplacian eigendecomposition: it picks r by the eigengap heuristic
// (scoreEigengap, searched in [1, maxK]; maxK <= 0 searches the whole
// spectrum) and then segments the graph into r clusters by the bottom r
// eigenvectors. This is the hot path of Fed-SC's local phase. Up to
// denseEigCutoff the eigengap reads the values first and inverse
// iteration computes the vectors of the chosen r only
// (mat.SymEigenSmallest); above it, Lanczos computes the band at once.
func EstimateAndCluster(w *sparse.CSR, maxK int, rng *rand.Rand) (int, []int) {
	n, _ := w.Dims()
	if n <= 1 {
		labels := make([]int, n)
		return n, labels
	}
	limit := n - 1
	if maxK > 0 && maxK < limit {
		limit = maxK
	}
	var r int
	var emb *mat.Dense
	if n <= denseEigCutoff {
		buf := laplacianPool.Get().(*[]float64)
		defer laplacianPool.Put(buf)
		eig := mat.SymEigenSmallest(denseLaplacian(normalizedAffinity(w), buf), limit+1, func(vals []float64) int {
			// Clamp a copy: inverse iteration shifts by the raw values.
			r = scoreEigengap(clampEigs(append([]float64(nil), vals...)), limit)
			return r
		})
		emb = eig.Vectors
	} else {
		vals, vecs := LaplacianEigs(w, limit+1, rng)
		r = scoreEigengap(vals, limit)
		emb = vecs.SliceCols(0, r)
	}
	// scoreEigengap keeps r within [1, limit] ⊂ [1, n−1].
	if r <= 1 {
		return r, make([]int, n)
	}
	normalizeEmbedding(emb)
	res := kmeans.Run(emb, r, rng, kmeans.Options{Restarts: 8})
	return r, res.Labels
}

// scoreEigengap applies the eigengap heuristic of Eq. (3): with the
// normalized-Laplacian eigenvalues sorted ascending, the estimated number
// of clusters is the index of the dominant gap σ_{i+1} − σ_i, searched in
// [1, limit]. Following Remark 1 of the paper — the estimate should be
// robust against weak false connections while still counting connected
// components — each candidate gap is scored relative to the average
// magnitude of the eigenvalue band BELOW it, (σ_{i+1} − σ_i)/(mean + ε):
// a cluster structure shows up as a band of near-zero eigenvalues
// (possibly lifted to a few hundredths by weak false connections)
// followed by a jump, so the jump at the true r towers over its band
// while bulk-interior gaps are dwarfed by theirs. ε floors the
// denominator; the normalized-Laplacian spectrum lives in [0, 2], so an
// absolute constant is meaningful.
func scoreEigengap(vals []float64, limit int) int {
	const eps = 0.05
	best, bestScore := 1, math.Inf(-1)
	bandSum := 0.0
	for i := 1; i <= limit && i < len(vals); i++ {
		bandSum += vals[i-1]
		bandMean := bandSum / float64(i)
		score := (vals[i] - vals[i-1]) / (bandMean + eps)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
