package mat

import (
	"runtime"
	"sync"
)

// parallelThreshold is the amount of scalar work below which matrix
// products run single-threaded; spawning goroutines for tiny products
// costs more than it saves.
const parallelThreshold = 1 << 16

// Mul returns the product a*b as a new matrix.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: Mul dimension mismatch")
	}
	out := NewDense(a.rows, b.cols)
	mulInto(out, a, b)
	return out
}

// mulInto computes out = a*b, parallelizing over row blocks of a. The
// inner loops use the ikj ordering so the innermost accesses stream over
// contiguous rows of b and out.
func mulInto(out, a, b *Dense) {
	runRows(a.rows, a.rows*a.cols*b.cols, product{out, a, b}, mulRows)
}

// product carries the operands of a matrix product to its row kernel.
type product struct{ out, a, b *Dense }

func mulRows(p product, r0, r1 int) {
	out, a, b := p.out, p.a, p.b
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			//fedsc:allow floatcmp sparsity skip: exact zeros contribute nothing
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			orow := orow[:len(brow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulTA returns aᵀ*b as a new matrix without materializing the transpose.
// Workers own disjoint blocks of output rows (columns of a), so the
// reduction over a's rows needs no merge step, no scratch matrix and no
// lock, and every output element accumulates in the same order as a
// serial evaluation regardless of the worker count.
func MulTA(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic("mat: MulTA dimension mismatch")
	}
	out := NewDense(a.cols, b.cols)
	runRows(a.cols, a.rows*a.cols*b.cols, product{out, a, b}, mulTARows)
	return out
}

func mulTARows(p product, i0, i1 int) {
	out, a, b := p.out, p.a, p.b
	for k := 0; k < a.rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := i0; i < i1; i++ {
			av := arow[i]
			//fedsc:allow floatcmp sparsity skip: exact zeros contribute nothing
			if av == 0 {
				continue
			}
			orow := out.Row(i)[:len(brow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulBT returns a*bᵀ as a new matrix without materializing the transpose.
func MulBT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic("mat: MulBT dimension mismatch")
	}
	out := NewDense(a.rows, b.rows)
	mulBTInto(out, a, b)
	return out
}

// mulBTInto computes out = a*bᵀ, overwriting every element of out.
func mulBTInto(out, a, b *Dense) {
	runRows(a.rows, a.rows*a.cols*b.rows, product{out, a, b}, mulBTRows)
}

func mulBTRows(p product, r0, r1 int) {
	out, a, b := p.out, p.a, p.b
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
}

// Gram returns the Gram matrix mᵀ*m of the columns of m. For finite m
// it is MulTA(m, m) to the bit, at half the multiplications (gramInto).
func Gram(m *Dense) *Dense {
	out := NewDense(m.cols, m.cols)
	gramInto(out, m)
	return out
}

// gramInto computes out = mᵀ*m into a zeroed out: the lower triangle
// exactly as MulTA accumulates it, mirrored into the upper one. Entry
// (j, i) would add the same products in the same order, and a product
// MulTA skips on the other side for its zero factor is a signed zero,
// which leaves a sum begun at +0 unchanged; so for finite m this is
// MulTA(m, m) to the bit, at half the multiplications.
func gramInto(out, m *Dense) {
	runRows(m.cols, m.rows*m.cols*m.cols/2, product{out, m, m}, gramRows)
	for i := 0; i < out.rows; i++ {
		for j := 0; j < i; j++ {
			out.data[j*out.cols+i] = out.data[i*out.cols+j]
		}
	}
}

// gramRows accumulates rows [i0, i1) of the lower triangle of mᵀ*m.
func gramRows(p product, i0, i1 int) {
	out, m := p.out, p.a
	for k := 0; k < m.rows; k++ {
		mrow := m.Row(k)
		for i := i0; i < i1; i++ {
			av := mrow[i]
			//fedsc:allow floatcmp sparsity skip: exact zeros contribute nothing
			if av == 0 {
				continue
			}
			brow := mrow[:i+1]
			orow := out.Row(i)[:len(brow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulVec returns the matrix-vector product m*x as a new slice.
func MulVec(m *Dense, x []float64) []float64 {
	if m.cols != len(x) {
		panic("mat: MulVec dimension mismatch")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// MulTVec returns mᵀ*x as a new slice.
func MulTVec(m *Dense, x []float64) []float64 {
	if m.rows != len(x) {
		panic("mat: MulTVec dimension mismatch")
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 { //fedsc:allow floatcmp sparsity skip: exact zeros contribute nothing
			continue
		}
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// rowRange splits [0, n) into contiguous chunks and runs fn on each,
// in parallel when the estimated work is large enough.
func rowRange(n, work int, fn func(lo, hi int)) {
	if inline(n, work) {
		fn(0, n)
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// inline reports whether rowRange(n, work, ·) runs on the calling
// goroutine: below parallelThreshold, for a single item, or on one P.
func inline(n, work int) bool {
	return work < parallelThreshold || n < 2 || runtime.GOMAXPROCS(0) <= 1
}

// runRows is rowRange for a capture-free kernel: it runs body(args, lo, hi)
// over the chunks of [0, n). A func literal handed to rowRange escapes
// (the workers' goroutines reach it), so it is built on the heap on
// every call even when the loop runs inline. Here the inline branch
// passes args by value to a plain function and allocates nothing; only
// the branch that fans out wraps body in a closure.
func runRows[A any](n, work int, args A, body func(A, int, int)) {
	if inline(n, work) {
		body(args, 0, n)
		return
	}
	rowRange(n, work, func(lo, hi int) { body(args, lo, hi) })
}

// Parallel exposes rowRange for other packages that want the same
// chunked-parallel loop over n items with an estimated total work. Its
// serial branch allocates nothing of its own, but fn escapes to the
// workers, so a func literal passed here is heap-allocated on every
// call; kernels called per row or per step inside this package go
// through runRows instead.
func Parallel(n, work int, fn func(lo, hi int)) { rowRange(n, work, fn) }
