package subspace

import (
	"math/rand"

	"fedsc/internal/lasso"
	"fedsc/internal/mat"
)

// Solver selects the optimizer behind the SSC self-expression step.
type Solver string

// The two solvers for the SSC subproblem (Eq. 2). The paper implements
// it with SPAMS, whose Lasso is the LARS homotopy with Cholesky updates
// that SolverLARS runs, and cites ADMM as the alternative it replaced.
const (
	SolverLARS Solver = "lars" // exact LARS-Lasso homotopy (default)
	SolverADMM Solver = "admm" // ADMM on the Lasso form
)

// SSCOptions configures sparse subspace clustering.
type SSCOptions struct {
	// Alpha sets the per-point ℓ1 weight λᵢ = maxⱼ≠ᵢ|xⱼᵀxᵢ|/Alpha
	// following the rule the paper adopts from Elhamifar & Vidal
	// (Prop. 1); Alpha > 1 guarantees a non-trivial solution. Default 50.
	Alpha float64
	// DropTol discards affinity entries with magnitude at or below it
	// (default 1e-8).
	DropTol float64
	// Which optimizer solves the self-expression problem (default
	// SolverLARS, which is exact; ADMM runs at its package defaults).
	Which Solver
}

func (o SSCOptions) withDefaults() SSCOptions {
	if o.Alpha <= 0 {
		o.Alpha = 50
	}
	if o.DropTol <= 0 {
		o.DropTol = 1e-8
	}
	if o.Which == "" {
		o.Which = SolverLARS
	}
	return o
}

// SSCCoefficients solves the Lasso self-expression problem (Eq. 2 of the
// paper) for every column of x and returns the coefficient rows (coef[i]
// is the representation of point i over the other points, with
// coef[i][i] = 0). One Gram matrix is shared across all N subproblems and
// the per-point solves run in parallel; the LARS solves write their rows
// into one n×n block.
func SSCCoefficients(x *mat.Dense, opts SSCOptions) [][]float64 {
	opts = opts.withDefaults()
	xn := normalized(x)
	_, n := xn.Dims()
	g := mat.Gram(xn)
	coef := make([][]float64, n)
	block := make([]float64, n*n)
	for i := range coef {
		coef[i] = block[i*n : (i+1)*n : (i+1)*n]
	}
	var admm *lasso.ADMMSolver
	if opts.Which == SolverADMM {
		admm = lasso.NewADMMSolver(g, lasso.ADMMOptions{})
	}
	mat.Parallel(n, n*n*64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := g.Row(i) // Xᵀxᵢ is the i-th row of the Gram matrix
			self := []int{i}
			mu := lasso.MaxCorrelation(b, self)
			if mu == 0 { //fedsc:allow floatcmp max |correlation| is exactly zero iff the point is exactly orthogonal to all others
				continue
			}
			lam := mu / opts.Alpha
			if opts.Which == SolverADMM {
				coef[i] = admm.Solve(b, lam, self)
			} else {
				lasso.GramInto(coef[i], g, b, lam, 0, self)
			}
		}
	})
	return coef
}

// SSC is sparse subspace clustering (Elhamifar & Vidal 2013): Lasso
// self-expression, affinity W = |C| + |C|ᵀ, normalized spectral
// clustering into k groups.
func SSC(x *mat.Dense, k int, rng *rand.Rand, opts SSCOptions) Result {
	opts = opts.withDefaults()
	coef := SSCCoefficients(x, opts)
	w := affinityFromCoef(coef, opts.DropTol)
	return Result{Labels: spectralLabels(w, k, rng), Affinity: w}
}
