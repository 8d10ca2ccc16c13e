// Package subspace implements the centralized subspace-clustering
// algorithms evaluated in the Fed-SC paper: SSC (sparse subspace
// clustering via Lasso self-expression), SSC-OMP, EnSC (elastic net with
// an active-set oracle), TSC (thresholded spherical distances) and NSN
// (greedy nearest-subspace-neighbor). Each algorithm builds a sparse
// affinity graph over the data points and segments it with normalized
// spectral clustering.
//
// Data conventions: a dataset is an n x N matrix whose COLUMNS are the
// data points; all algorithms assume (and internally enforce) unit ℓ2
// column norms, matching the paper's setup.
package subspace

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"fedsc/internal/mat"
	"fedsc/internal/sparse"
	"fedsc/internal/spectral"
)

// Result is the outcome of a subspace-clustering run.
type Result struct {
	// Labels assigns each data point (column) a cluster in [0, k).
	Labels []int
	// Affinity is the symmetric affinity graph the labels were derived
	// from; metrics such as graph connectivity are computed on it.
	Affinity *sparse.CSR
}

// Method identifies one of the implemented algorithms.
type Method string

// The centralized algorithms reproduced from the paper's evaluation.
const (
	MethodSSC    Method = "ssc"
	MethodSSCOMP Method = "sscomp"
	MethodEnSC   Method = "ensc"
	MethodTSC    Method = "tsc"
	MethodNSN    Method = "nsn"
)

// Methods lists all implemented centralized algorithms in evaluation order.
func Methods() []Method {
	return []Method{MethodSSC, MethodSSCOMP, MethodEnSC, MethodTSC, MethodNSN}
}

// Cluster runs the chosen method on x (columns = points) targeting k
// clusters, using default options.
func Cluster(method Method, x *mat.Dense, k int, rng *rand.Rand) Result {
	switch method {
	case MethodSSC:
		return SSC(x, k, rng, SSCOptions{})
	case MethodSSCOMP:
		return SSCOMP(x, k, rng, OMPOptions{})
	case MethodEnSC:
		return EnSC(x, k, rng, EnSCOptions{})
	case MethodTSC:
		return TSC(x, k, rng, TSCOptions{})
	case MethodNSN:
		return NSN(x, k, rng, NSNOptions{})
	default:
		panic("subspace: unknown method " + string(method))
	}
}

// normalized returns x with unit-norm columns, copying only when needed.
func normalized(x *mat.Dense) *mat.Dense {
	norms := mat.ColNorms(x)
	for _, v := range norms {
		if math.Abs(v-1) > 1e-9 && v != 0 { //fedsc:allow floatcmp zero-norm columns cannot be normalized and are passed through
			c := x.Clone()
			mat.NormalizeColumns(c)
			return c
		}
	}
	return x
}

// AffinityFromCoefficients assembles the SSC-style affinity W = |C| + |C|ᵀ
// from per-point self-expression vectors, dropping entries with magnitude
// at or below dropTol. It is exported for the Fed-SC local-clustering
// phase, which needs the affinity graph itself (for the eigengap
// estimate) and not just the labels.
func AffinityFromCoefficients(coef [][]float64, dropTol float64) *sparse.CSR {
	return affinityFromCoef(coef, dropTol)
}

// tripletPool holds the coordinate buffers of affinityFromCoef.
var tripletPool = sync.Pool{New: func() any { return new([]sparse.Coord) }}

// affinityFromCoef assembles the SSC-style affinity W = |C| + |C|ᵀ from
// per-point coefficient vectors, dropping entries below dropTol to keep
// the graph sparse. coef[i] is the self-expression for point i.
// The triplets are counted first and collected in a pooled buffer of at
// least that size, which NewCSR copies out of, rather than in a slice
// grown by append on every call.
func affinityFromCoef(coef [][]float64, dropTol float64) *sparse.CSR {
	n := len(coef)
	keep := func(i, j int, v float64) bool { return !(math.Abs(v) <= dropTol || i == j) }
	count := 0
	for i, c := range coef {
		for j, v := range c {
			if keep(i, j, v) {
				count += 2
			}
		}
	}
	buf := tripletPool.Get().(*[]sparse.Coord)
	entries := slices.Grow((*buf)[:0], count)
	for i, c := range coef {
		for j, v := range c {
			if !keep(i, j, v) {
				continue
			}
			a := math.Abs(v)
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: a})
			entries = append(entries, sparse.Coord{Row: j, Col: i, Val: a})
		}
	}
	w := sparse.NewCSR(n, n, entries)
	*buf = entries
	tripletPool.Put(buf)
	return w
}

// spectralLabels segments an affinity graph into k clusters.
func spectralLabels(w *sparse.CSR, k int, rng *rand.Rand) []int {
	return spectral.Cluster(w, k, rng)
}
