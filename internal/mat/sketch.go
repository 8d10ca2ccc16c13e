package mat

import (
	"math"
	"math/rand"
)

// Row-compression sketches for the server's Phase 2. The pooled sample
// matrix Θ is n x Z with unit-norm columns; the central SSC/TSC solvers
// only consume column inner products (the Gram matrix) and column
// distances, both of which a Johnson-Lindenstrauss row projection
// preserves to within the usual (1±ε) distortion. Compressing the
// ambient dimension n down to s therefore cuts every O(n·Z²) kernel of
// the central solve by n/s while leaving the clustering geometry intact
// — the "sketch, then cluster" reduction of sketched subspace
// clustering (Traganitis & Giannakis). The sketch reuses the same
// Gaussian test-matrix machinery as the randomized range finder behind
// TruncatedSVD, just applied from the left.

// Sketch returns the s x c matrix (1/√s)·Ω·a where Ω is an
// s x r matrix of iid standard normals drawn from rng. The 1/√s scale
// makes the sketch an isometry in expectation, so downstream tolerances
// (SSC's DropTol, TSC's spherical distances) keep their meaning. When
// s >= the row count of a, the sketch cannot compress and a is returned
// unchanged (not copied).
func Sketch(a *Dense, s int, rng *rand.Rand) *Dense {
	r := a.Rows()
	if s >= r || s <= 0 {
		return a
	}
	omega := RandomGaussian(s, r, rng)
	out := Mul(omega, a)
	out.Scale(1 / math.Sqrt(float64(s)))
	return out
}
