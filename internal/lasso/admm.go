package lasso

import (
	"math"

	"fedsc/internal/mat"
)

// ADMMOptions controls the ADMM solvers.
type ADMMOptions struct {
	// Rho is the augmented-Lagrangian penalty (default 1).
	Rho float64
	// MaxIter bounds ADMM iterations (default 400).
	MaxIter int
	// AbsTol and RelTol are the standard primal/dual stopping tolerances
	// of Boyd et al. (defaults 1e-6 and 1e-5).
	AbsTol, RelTol float64
}

func (o ADMMOptions) withDefaults() ADMMOptions {
	if o.Rho <= 0 {
		o.Rho = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 400
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-6
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-5
	}
	return o
}

// ADMMSolver solves Lasso problems min ½‖y−Xc‖² + λ‖c‖₁ over one fixed
// dictionary by the Alternating Direction Method of Multipliers — the
// solver the original SSC release uses (the paper swaps it for SPAMS; we
// provide both, see the SSC solver ablation). The factorization of
// (G + ρI) is cached, so solving for all N columns of a dataset costs
// one Cholesky plus cheap triangular solves per point.
type ADMMSolver struct {
	opts ADMMOptions
	g    *mat.Dense // Gram matrix XᵀX
	chol *mat.Dense // Cholesky factor of G + ρI (lower triangular)
	n    int
}

// NewADMMSolver prepares an ADMM solver for the dictionary Gram matrix g.
func NewADMMSolver(g *mat.Dense, opts ADMMOptions) *ADMMSolver {
	opts = opts.withDefaults()
	n := g.Rows()
	shifted := g.Clone()
	for i := 0; i < n; i++ {
		shifted.Add(i, i, opts.Rho)
	}
	return &ADMMSolver{opts: opts, g: g, chol: cholesky(shifted), n: n}
}

// Solve minimizes ½‖y−Xc‖² + λ‖c‖₁ given b = Xᵀy, with banned
// coefficients pinned to zero.
func (s *ADMMSolver) Solve(b []float64, lambda float64, banned []int) []float64 {
	o := s.opts
	n := s.n
	isBanned := make([]bool, n)
	for _, i := range banned {
		isBanned[i] = true
	}
	c := make([]float64, n) // primal (smooth block)
	z := make([]float64, n) // primal (ℓ1 block)
	u := make([]float64, n) // scaled dual
	rhs := make([]float64, n)
	zOld := make([]float64, n)
	for it := 0; it < o.MaxIter; it++ {
		// c-update: (G + ρI) c = b + ρ(z − u).
		for i := 0; i < n; i++ {
			rhs[i] = b[i] + o.Rho*(z[i]-u[i])
		}
		cholSolve(s.chol, rhs, c)
		// z-update: soft threshold, with banned entries forced to zero.
		copy(zOld, z)
		for i := 0; i < n; i++ {
			if isBanned[i] {
				z[i] = 0
				continue
			}
			z[i] = SoftThreshold(c[i]+u[i], lambda/o.Rho)
		}
		// u-update and convergence check.
		rNorm, sNorm := 0.0, 0.0
		cNorm, zNorm, uNorm := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			r := c[i] - z[i]
			u[i] += r
			rNorm += r * r
			d := z[i] - zOld[i]
			sNorm += d * d
			cNorm += c[i] * c[i]
			zNorm += z[i] * z[i]
			uNorm += u[i] * u[i]
		}
		rNorm = math.Sqrt(rNorm)
		sNorm = o.Rho * math.Sqrt(sNorm)
		epsPri := math.Sqrt(float64(n))*o.AbsTol + o.RelTol*math.Max(math.Sqrt(cNorm), math.Sqrt(zNorm))
		epsDual := math.Sqrt(float64(n))*o.AbsTol + o.RelTol*o.Rho*math.Sqrt(uNorm)
		if rNorm < epsPri && sNorm < epsDual {
			break
		}
	}
	return z
}

// cholesky returns the lower-triangular Cholesky factor of the symmetric
// positive-definite matrix a.
func cholesky(a *mat.Dense) *mat.Dense {
	n := a.Rows()
	l := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					// Numerical safeguard for nearly singular matrices.
					s = 1e-12
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l
}

// cholSolve solves (L Lᵀ) x = b given the lower Cholesky factor.
func cholSolve(l *mat.Dense, b, x []float64) {
	n := l.Rows()
	// Forward substitution L w = b (w stored in x).
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back substitution Lᵀ x = w.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}
