package subspace

import (
	"math/rand"

	"fedsc/internal/lasso"
	"fedsc/internal/mat"
)

// EnSCOptions configures elastic-net subspace clustering.
type EnSCOptions struct {
	// Alpha sets the ℓ1 weight from the correlation rule
	// λ₁ᵢ = maxⱼ≠ᵢ|xⱼᵀxᵢ|/Alpha (default 50, as for SSC).
	Alpha float64
	// L2Ratio sets λ₂ = L2Ratio·λ₁, trading sparsity for connectivity;
	// the elastic-net ridge term is what distinguishes EnSC from SSC
	// (default 1.0).
	L2Ratio float64
	// DropTol discards small affinity entries (default 1e-8).
	DropTol float64
	// ActiveSet tunes the oracle-based solver.
	ActiveSet lasso.ActiveSetOptions
}

func (o EnSCOptions) withDefaults() EnSCOptions {
	if o.Alpha <= 0 {
		o.Alpha = 50
	}
	if o.L2Ratio <= 0 {
		o.L2Ratio = 1.0
	}
	if o.DropTol <= 0 {
		o.DropTol = 1e-8
	}
	return o
}

// EnSC is elastic-net subspace clustering with the oracle-based
// active-set solver (You et al., CVPR 2016). The active-set strategy
// never materializes the full Gram matrix, which is what lets EnSC scale
// past plain SSC.
func EnSC(x *mat.Dense, k int, rng *rand.Rand, opts EnSCOptions) Result {
	opts = opts.withDefaults()
	xn := normalized(x)
	_, n := xn.Dims()
	coef := make([][]float64, n)
	mat.Parallel(n, n*n*48, func(lo, hi int) {
		col := make([]float64, xn.Rows())
		for i := lo; i < hi; i++ {
			xn.Col(i, col)
			self := []int{i}
			mu := lasso.MaxCorrelation(mat.MulTVec(xn, col), self)
			if mu == 0 { //fedsc:allow floatcmp max |correlation| is exactly zero iff the point is exactly orthogonal to all others
				coef[i] = make([]float64, n)
				continue
			}
			l1 := mu / opts.Alpha
			coef[i] = lasso.ElasticNetActiveSet(xn, col, l1, opts.L2Ratio*l1, self, opts.ActiveSet)
		}
	})
	w := affinityFromCoef(coef, opts.DropTol)
	return Result{Labels: spectralLabels(w, k, rng), Affinity: w}
}
