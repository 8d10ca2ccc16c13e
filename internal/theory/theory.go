// Package theory implements the analytical quantities of Section V:
// principal angles and subspace affinity (Definition 5), subspace
// incoherence via dual directions (Definitions 1 and 3), active sets
// (Definition 2), the inradius of the symmetrized convex hull
// (Definition 4, estimated), the general-position property (Definition
// 6, checked probabilistically), and evaluators for the sufficient
// conditions of Theorems 1 and 2.
//
// These are analysis tools: the estimators documented as such trade
// exactness for tractability (the exact inradius is an NP-hard convex
// geometry problem) but are accurate enough to validate the theory's
// predictions in tests and experiments.
package theory

import (
	"math"
	"math/rand"

	"fedsc/internal/lasso"
	"fedsc/internal/mat"
)

// PrincipalAngles returns the cosines of the canonical angles between the
// subspaces spanned by the orthonormal bases u and v, sorted descending
// (cos φ⁽¹⁾ ≥ cos φ⁽²⁾ ≥ …). They are the singular values of uᵀv.
func PrincipalAngles(u, v *mat.Dense) []float64 {
	prod := mat.MulTA(u, v)
	sv := mat.SingularValues(prod)
	cos := make([]float64, len(sv))
	for i, s := range sv {
		if s > 1 {
			s = 1
		}
		cos[i] = s
	}
	return cos
}

// Affinity computes aff(S_k, S_ℓ) of Definition 5:
// sqrt(Σᵢ cos²φ⁽ⁱ⁾) over the first min(d_k, d_ℓ) canonical angles.
func Affinity(u, v *mat.Dense) float64 {
	cos := PrincipalAngles(u, v)
	s := 0.0
	for _, c := range cos {
		s += c * c
	}
	return math.Sqrt(s)
}

// NormalizedAffinity returns aff(S_k,S_ℓ)/√(d_k ∧ d_ℓ), the quantity the
// semi-random conditions bound; it lies in [0, 1].
func NormalizedAffinity(u, v *mat.Dense) float64 {
	d := u.Cols()
	if v.Cols() < d {
		d = v.Cols()
	}
	if d == 0 {
		return 0
	}
	return Affinity(u, v) / math.Sqrt(float64(d))
}

// DualDirection approximates ν(x, X) of Definition 1 — the solution of
// max ⟨x, ν⟩ s.t. ‖Xᵀν‖∞ ≤ 1 — through the Lasso dual: for the solution
// c_λ of min ½‖x−Xc‖² + λ‖c‖₁, the residual (x − Xc_λ)/λ converges to ν
// as λ→0. lambda controls the approximation (default 1e-3 when ≤ 0).
func DualDirection(x []float64, xs *mat.Dense, lambda float64) []float64 {
	if lambda <= 0 {
		lambda = 1e-3
	}
	c := lasso.Lasso(xs, x, lambda, nil)
	fit := mat.MulVec(xs, c)
	nu := mat.Sub(x, fit, nil)
	mat.ScaleVec(1/lambda, nu)
	return nu
}

// ProjectedDualDirections computes the matrix V_ℓ of Definition 1 for the
// points of xl (columns): for each point, the dual direction against the
// remaining points of its subspace, projected onto the subspace (basis
// must span it) and normalized.
func ProjectedDualDirections(xl, basis *mat.Dense, lambda float64) *mat.Dense {
	n, cols := xl.Dims()
	v := mat.NewDense(n, cols)
	x := make([]float64, n)
	for i := 0; i < cols; i++ {
		xl.Col(i, x)
		others := make([]int, 0, cols-1)
		for j := 0; j < cols; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		rest := xl.SelectCols(others)
		nu := DualDirection(x, rest, lambda)
		// Project onto the subspace and normalize.
		proj := mat.MulVec(basis, mat.MulTVec(basis, nu))
		// A denormal-scale projection is as degenerate as an exact zero:
		// normalizing it amplifies pure rounding noise into a "direction".
		if mat.Normalize(proj) <= 1e-12 {
			continue
		}
		v.SetCol(i, proj)
	}
	return v
}

// Incoherence computes μ(X_ℓ) of Definition 1: max over the columns x of
// xOthers of ‖V_ℓᵀ x‖∞, with V_ℓ the projected dual directions of xl.
func Incoherence(xl, basis, xOthers *mat.Dense, lambda float64) float64 {
	v := ProjectedDualDirections(xl, basis, lambda)
	prods := mat.MulTA(v, xOthers)
	return prods.MaxAbs()
}

// ActiveSets computes α(ℓ) of Definition 2 from a federated partition:
// k ∈ α(ℓ) iff some device holds points of both subspaces ℓ and k.
// labels are ground-truth subspace indices, pointsPerDevice the per-device
// point lists, l the number of subspaces.
func ActiveSets(labels []int, pointsPerDevice [][]int, l int) [][]int {
	joint := make([][]bool, l)
	for i := range joint {
		joint[i] = make([]bool, l)
	}
	for _, pts := range pointsPerDevice {
		present := map[int]bool{}
		for _, i := range pts {
			present[labels[i]] = true
		}
		for a := range present {
			for b := range present {
				if a != b {
					joint[a][b] = true
				}
			}
		}
	}
	out := make([][]int, l)
	for a := 0; a < l; a++ {
		for b := 0; b < l; b++ {
			if joint[a][b] {
				out[a] = append(out[a], b)
			}
		}
	}
	return out
}

// InradiusEstimate estimates r(𝒫(X)) of Definition 4 — the inradius of
// the symmetrized convex hull of the columns of x, measured within their
// span — by minimizing the support function h(w) = maxⱼ|xⱼᵀw| over unit
// directions w in the span: random restarts plus coordinate-free local
// descent. The true inradius is the minimum over ALL directions, so the
// returned value is an upper bound that tightens with trials.
func InradiusEstimate(x, basis *mat.Dense, trials int, rng *rand.Rand) float64 {
	d := basis.Cols()
	if d == 0 || x.Cols() == 0 {
		return 0
	}
	// Work in subspace coordinates: columns y_j = basisᵀ x_j, directions
	// unit vectors in R^d.
	y := mat.MulTA(basis, x)
	support := func(w []float64) (float64, int) {
		h, arg := -1.0, 0
		for j := 0; j < y.Cols(); j++ {
			s := 0.0
			for i := 0; i < d; i++ {
				s += y.At(i, j) * w[i]
			}
			if a := math.Abs(s); a > h {
				h, arg = a, j
			}
		}
		return h, arg
	}
	best := math.Inf(1)
	for t := 0; t < trials; t++ {
		w := mat.RandomUnitVector(d, rng)
		h, arg := support(w)
		// Local descent: step away from the active (maximal) point.
		step := 0.5
		for it := 0; it < 60 && step > 1e-6; it++ {
			g := make([]float64, d)
			sgn := 1.0
			s := 0.0
			for i := 0; i < d; i++ {
				s += y.At(i, arg) * w[i]
			}
			if s < 0 {
				sgn = -1
			}
			for i := 0; i < d; i++ {
				g[i] = sgn * y.At(i, arg)
			}
			cand := make([]float64, d)
			for i := 0; i < d; i++ {
				cand[i] = w[i] - step*g[i]
			}
			if mat.Normalize(cand) <= 1e-12 {
				step /= 2
				continue
			}
			if hc, ac := support(cand); hc < h {
				w, h, arg = cand, hc, ac
			} else {
				step /= 2
			}
		}
		if h < best {
			best = h
		}
	}
	return best
}

// GeneralPosition probabilistically checks Definition 6 for one
// subspace's points: every subset of k ≤ d columns should be linearly
// independent. Exhaustive checking is combinatorial, so `trials` random
// d-subsets are rank-tested; Gaussian-sampled data fails only with
// probability zero, so any dependent subset found is decisive.
func GeneralPosition(x *mat.Dense, d, trials int, rng *rand.Rand) bool {
	cols := x.Cols()
	if cols <= d {
		return mat.NumericalRank(x, 1e-9) == cols
	}
	for t := 0; t < trials; t++ {
		idx := rng.Perm(cols)[:d]
		sub := x.SelectCols(idx)
		if mat.NumericalRank(sub, 1e-9) < d {
			return false
		}
	}
	return true
}
