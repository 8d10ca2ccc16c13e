// Package serve turns a completed one-shot Fed-SC round into a
// long-running inference service: it loads the model artifact a round
// produced (per-global-cluster subspace bases, package core), answers
// "which cluster does this new point belong to?" by minimum projection
// residual, scoring each request's points as one blocked matrix on the
// request's own goroutine, bounds the points in flight (admission
// control), supports atomic hot swap of the model, and exposes an HTTP
// JSON API with Prometheus-style metrics.
package serve

import (
	"fmt"
	"math"

	"fedsc/internal/core"
	"fedsc/internal/mat"
)

// Engine scores points against one immutable model. All methods are
// safe for concurrent use: the bases are never mutated after
// construction.
type Engine struct {
	bases   []*mat.Dense
	ambient int
}

// NewEngine validates the model and precomputes the per-cluster
// projector state (the orthonormal bases; the projector U Uᵀ itself is
// never materialized because the residual kernel only needs UᵀX).
func NewEngine(m *core.Model) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Engine{bases: m.Bases(), ambient: m.Ambient}, nil
}

// Ambient returns the data dimension n the engine expects.
func (e *Engine) Ambient() int { return e.ambient }

// L returns the number of global clusters.
func (e *Engine) L() int { return len(e.bases) }

// Assign scores every column of x against all cluster subspaces with one
// blocked matmul per cluster and returns each point's minimum-residual
// label and residual norm ‖x − U Uᵀx‖.
func (e *Engine) Assign(x *mat.Dense) (labels []int, residuals []float64, err error) {
	if x.Rows() != e.ambient {
		return nil, nil, fmt.Errorf("serve: points live in %d dims, model expects %d", x.Rows(), e.ambient)
	}
	b := x.Cols()
	labels = make([]int, b)
	residuals = make([]float64, b)
	if b == 0 {
		return labels, residuals, nil
	}
	norms := mat.ColNormsSq(x)
	for j := range residuals {
		residuals[j] = math.Inf(1)
	}
	for g, u := range e.bases {
		r := mat.ResidualsSq(u, x, norms)
		for j, v := range r {
			if v < residuals[j] {
				residuals[j], labels[j] = v, g
			}
		}
	}
	for j, v := range residuals {
		residuals[j] = math.Sqrt(v)
	}
	return labels, residuals, nil
}

// AssignPoint scores a single point.
func (e *Engine) AssignPoint(x []float64) (int, float64, error) {
	if len(x) != e.ambient {
		return 0, 0, fmt.Errorf("serve: point has %d dims, model expects %d", len(x), e.ambient)
	}
	labels, residuals, err := e.Assign(mat.NewDenseData(e.ambient, 1, append([]float64(nil), x...)))
	if err != nil {
		return 0, 0, err
	}
	return labels[0], residuals[0], nil
}
