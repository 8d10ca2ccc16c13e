package lasso

import (
	"math"
	"sort"

	"fedsc/internal/mat"
)

// ActiveSetOptions controls ElasticNetActiveSet.
type ActiveSetOptions struct {
	// InitialSize is the number of highest-correlation atoms seeding the
	// active set (default 50).
	InitialSize int
	// GrowBy bounds how many KKT violators are admitted per round
	// (default 10).
	GrowBy int
	// MaxRounds bounds the number of oracle rounds (default 20).
	MaxRounds int
}

func (o ActiveSetOptions) withDefaults() ActiveSetOptions {
	if o.InitialSize <= 0 {
		o.InitialSize = 50
	}
	if o.GrowBy <= 0 {
		o.GrowBy = 10
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 20
	}
	return o
}

// ElasticNetActiveSet solves
//
//	min_c (1/2)‖y − Xc‖² + λ₁‖c‖₁ + (λ₂/2)‖c‖₂²
//
// with the oracle-based active-set strategy of EnSC (You et al., CVPR'16):
// the subproblem is solved on a small candidate set, then the KKT
// conditions are checked against the full dictionary and violating atoms
// are admitted, until no violations remain. This avoids ever forming the
// full N x N Gram matrix, which is what makes EnSC scale to large
// dictionaries. banned indices are pinned to zero.
func ElasticNetActiveSet(x *mat.Dense, y []float64, lambda1, lambda2 float64, banned []int, opts ActiveSetOptions) []float64 {
	opts = opts.withDefaults()
	_, cols := x.Dims()
	isBanned := make([]bool, cols)
	for _, i := range banned {
		isBanned[i] = true
	}
	b := mat.MulTVec(x, y)
	// Seed: highest correlations.
	order := make([]int, 0, cols)
	for j := 0; j < cols; j++ {
		if !isBanned[j] {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return math.Abs(b[order[i]]) > math.Abs(b[order[j]])
	})
	size := opts.InitialSize
	if size > len(order) {
		size = len(order)
	}
	active := append([]int(nil), order[:size]...)
	inActive := make([]bool, cols)
	for _, j := range active {
		inActive[j] = true
	}
	c := make([]float64, cols)
	for round := 0; round < opts.MaxRounds; round++ {
		// Solve the subproblem restricted to the active set.
		sub := x.SelectCols(active)
		gs := mat.Gram(sub)
		bs := make([]float64, len(active))
		for k, j := range active {
			bs[k] = b[j]
		}
		cs := Gram(gs, bs, lambda1, lambda2, nil)
		for j := range c {
			c[j] = 0
		}
		for k, j := range active {
			c[j] = cs[k]
		}
		// KKT check on the full dictionary: residual correlations.
		fit := mat.MulVec(sub, cs)
		r := mat.Sub(y, fit, nil)
		v := mat.MulTVec(x, r)
		type viol struct {
			j int
			a float64
		}
		var violators []viol
		tol := lambda1*1e-6 + 1e-12
		for j := 0; j < cols; j++ {
			if isBanned[j] || inActive[j] {
				continue
			}
			if a := math.Abs(v[j]); a > lambda1+tol {
				violators = append(violators, viol{j, a})
			}
		}
		if len(violators) == 0 {
			break
		}
		sort.Slice(violators, func(i, j int) bool { return violators[i].a > violators[j].a })
		grow := opts.GrowBy
		if grow > len(violators) {
			grow = len(violators)
		}
		for _, vv := range violators[:grow] {
			active = append(active, vv.j)
			inActive[vv.j] = true
		}
	}
	return c
}
