package core

import (
	"math/rand"
	"time"

	"fedsc/internal/mat"
	"fedsc/internal/spectral"
	"fedsc/internal/subspace"
)

// rankTol is the relative singular-value cutoff below which a cluster's
// spectrum counts as decayed when its dimension d_t is estimated.
const rankTol = 1e-6

// LocalClusterAndSample runs Algorithm 2 on one device's data x (columns
// are points): SSC self-expression, eigengap (or capped) estimation of
// the number of local clusters, spectral segmentation, per-cluster basis
// recovery by truncated SVD, and generation of uniform unit-sphere
// samples from each estimated subspace.
func LocalClusterAndSample(x *mat.Dense, opts LocalOptions, rng *rand.Rand) LocalResult {
	opts = opts.withDefaults()
	start := time.Now()
	n, cols := x.Dims()
	if cols == 0 {
		return LocalResult{Samples: mat.NewDense(n, 0), Elapsed: time.Since(start)}
	}
	var partitions [][]int
	if cols == 1 {
		partitions = [][]int{{0}}
	} else {
		coef := subspace.SSCCoefficients(x, opts.SSC)
		w := subspace.AffinityFromCoefficients(coef, sscDropTol(opts.SSC))
		var r int
		var labels []int
		if opts.UseEigengap {
			r, labels = spectral.EstimateAndCluster(w, opts.RMax, rng)
		} else {
			r = opts.RMax
			if r > cols {
				r = cols
			}
			labels = spectral.Cluster(w, r, rng)
		}
		if r < 1 {
			r = 1
		}
		partitions = make([][]int, r)
		for i, t := range labels {
			partitions[t] = append(partitions[t], i)
		}
		// Spectral k-means can leave a cluster empty on degenerate
		// graphs; drop empty partitions rather than upload junk samples.
		kept := partitions[:0]
		for _, p := range partitions {
			if len(p) > 0 {
				kept = append(kept, p)
			}
		}
		partitions = kept
	}
	r := len(partitions)
	samples := mat.NewDense(n, r*opts.SamplesPerCluster)
	dims := make([]int, r)
	bases := make([]*mat.Dense, r)
	for t, idx := range partitions {
		sub := x.SelectCols(idx)
		basis, dt := clusterBasis(sub, opts.TargetDim)
		dims[t], bases[t] = dt, basis
		for s := 0; s < opts.SamplesPerCluster; s++ {
			theta := sampleFromBasis(basis, rng)
			samples.SetCol(t*opts.SamplesPerCluster+s, theta)
		}
	}
	return LocalResult{
		Partitions: partitions,
		Samples:    samples,
		Dims:       dims,
		Bases:      bases,
		Elapsed:    time.Since(start),
	}
}

// clusterBasis recovers one cluster's orthonormal subspace basis and its
// dimension. With a TargetDim override the dimension is known up front and
// only a truncated factorization runs (the randomized range-finder path
// for large clusters). Otherwise one eigendecomposition of the cluster's
// smaller Gram matrix yields the spectrum d is read from and, at the
// shapes where the truncated SVD takes its exact Gram path, the basis
// itself (mat.TruncatedSVDPick).
func clusterBasis(sub *mat.Dense, targetDim int) (*mat.Dense, int) {
	maxDim := min(sub.Rows(), sub.Cols())
	if targetDim > 0 {
		d := min(targetDim, maxDim)
		basis, _ := mat.TruncatedSVD(sub, d)
		return basis, d
	}
	var d int
	basis, _ := mat.TruncatedSVDPick(sub, func(s []float64) int {
		d = dimFromSpectrum(s, maxDim)
		return d
	})
	return basis, d
}

// dimFromSpectrum picks the subspace dimension d_t from a cluster's
// singular-value spectrum (sorted descending). It detects the numerical
// rank by the largest multiplicative gap — robust to the noise floor real
// data puts under the true subspace spectrum (a fixed tolerance would
// read the noise as extra dimensions). rankTol only marks where the
// spectrum has decayed to negligible. The spectrum comes from a Gram
// eigendecomposition, whose rounding floor sits near 1e-8·s₀: well below
// rankTol, so an exact-rank cluster still ends at its rank. The 1e-9
// floor of the flat-spectrum branch is reached only when every value
// checked stayed above rankTol.
func dimFromSpectrum(s []float64, maxDim int) int {
	if len(s) == 0 || s[0] <= 0 {
		return 1
	}
	best, bestRatio := 1, 0.0
	for i := 0; i < len(s)-1 && i < maxDim; i++ {
		if s[i] <= rankTol*s[0] {
			break
		}
		next := s[i+1]
		if next <= rankTol*s[0] {
			// Spectrum ends here: exact rank i+1.
			return i + 1
		}
		if ratio := s[i] / next; ratio > bestRatio {
			best, bestRatio = i+1, ratio
		}
	}
	if bestRatio >= 2 {
		return best
	}
	// A gap below 2x is no gap at all (flat spectrum): treat the cluster
	// as full-dimensional up to where the spectrum stays above the
	// negligible-energy floor.
	d := 0
	for i := 0; i < len(s) && i < maxDim; i++ {
		if s[i] > 1e-9*s[0] {
			d++
		}
	}
	if d < 1 {
		d = 1
	}
	return d
}

// sampleFromBasis draws θ = Uα/‖Uα‖₂ with α ~ N(0, I) (Eq. 5): a point
// uniformly distributed on the unit sphere of the estimated subspace.
func sampleFromBasis(basis *mat.Dense, rng *rand.Rand) []float64 {
	n, d := basis.Dims()
	for {
		alpha := make([]float64, d)
		for i := range alpha {
			alpha[i] = rng.NormFloat64()
		}
		theta := make([]float64, n)
		for i := 0; i < n; i++ {
			row := basis.Row(i)
			s := 0.0
			for j, a := range alpha {
				s += row[j] * a
			}
			theta[i] = s
		}
		if mat.Normalize(theta) > 0 {
			return theta
		}
	}
}

// sscDropTol mirrors the default used inside package subspace so the
// locally built affinity matches what SSC itself would produce.
func sscDropTol(o subspace.SSCOptions) float64 {
	if o.DropTol > 0 {
		return o.DropTol
	}
	return 1e-8
}
