// Package sparse provides compressed sparse row matrices for the affinity
// graphs built by subspace clustering, together with the graph and
// spectral primitives that operate on them: matrix-vector products,
// connected components, normalized Laplacian construction and a Lanczos
// eigensolver for the extreme eigenpairs of large symmetric operators.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Coord is a single (row, column, value) entry used to assemble matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is an immutable sparse matrix in compressed sparse row form.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR assembles a CSR matrix from coordinate entries. Duplicate
// coordinates are summed in input order; explicit zeros, and duplicates
// that cancel exactly, are dropped. Entries are bucketed by row in one
// counting pass and each row is stable-sorted by column, so no
// comparison sort runs over the whole entry list.
func NewCSR(rows, cols int, entries []Coord) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, rows, cols))
		}
		if e.Val != 0 { //fedsc:allow floatcmp dropping exactly-zero entries is the CSR construction contract
			m.rowPtr[e.Row+1]++
		}
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	es := make([]Coord, m.rowPtr[rows])
	next := append([]int(nil), m.rowPtr[:rows]...)
	for _, e := range entries {
		if e.Val != 0 { //fedsc:allow floatcmp dropping exactly-zero entries is the CSR construction contract
			es[next[e.Row]] = e
			next[e.Row]++
		}
	}
	m.colIdx = make([]int, 0, len(es))
	m.vals = make([]float64, 0, len(es))
	for r := 0; r < rows; r++ {
		row := es[m.rowPtr[r]:m.rowPtr[r+1]]
		slices.SortStableFunc(row, func(a, b Coord) int { return a.Col - b.Col })
		m.rowPtr[r] = len(m.vals) // bucket offsets become merged offsets; r+1 not yet
		for i := 0; i < len(row); {
			v := 0.0
			j := i
			for ; j < len(row) && row[j].Col == row[i].Col; j++ {
				v += row[j].Val
			}
			if v != 0 { //fedsc:allow floatcmp duplicate coordinates that cancel exactly are dropped
				m.colIdx = append(m.colIdx, row[i].Col)
				m.vals = append(m.vals, v)
			}
			i = j
		}
	}
	m.rowPtr[rows] = len(m.vals)
	return m
}

// Dims returns (rows, cols).
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the value at (i, j), zero when the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := m.colIdx[lo:hi]
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return m.vals[lo+k]
	}
	return 0
}

// Row invokes fn for every stored entry (j, v) of row i.
func (m *CSR) Row(i int, fn func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.vals[k])
	}
}

// MulVec computes y = m*x, allocating y when nil, and returns it.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.cols {
		panic("sparse: MulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.rows)
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
	return y
}

// RowSums returns the vector of row sums (the degree vector for an
// affinity matrix).
func (m *CSR) RowSums() []float64 {
	d := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k]
		}
		d[i] = s
	}
	return d
}

// Scale returns a copy of m with every value multiplied by a.
func (m *CSR) Scale(a float64) *CSR {
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr,
		colIdx: m.colIdx, vals: make([]float64, len(m.vals))}
	for i, v := range m.vals {
		out.vals[i] = a * v
	}
	return out
}

// DiagScale returns diag(l) * m * diag(r) as a new matrix sharing the
// sparsity pattern of m.
func (m *CSR) DiagScale(l, r []float64) *CSR {
	if len(l) != m.rows || len(r) != m.cols {
		panic("sparse: DiagScale dimension mismatch")
	}
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr,
		colIdx: m.colIdx, vals: make([]float64, len(m.vals))}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out.vals[k] = l[i] * m.vals[k] * r[m.colIdx[k]]
		}
	}
	return out
}

// Submatrix returns the square submatrix of m indexed by idx on both
// axes. m must be square.
func (m *CSR) Submatrix(idx []int) *CSR {
	if m.rows != m.cols {
		panic("sparse: Submatrix requires a square matrix")
	}
	pos := make(map[int]int, len(idx))
	for k, i := range idx {
		pos[i] = k
	}
	var entries []Coord
	for k, i := range idx {
		m.Row(i, func(j int, v float64) {
			if jj, ok := pos[j]; ok {
				entries = append(entries, Coord{Row: k, Col: jj, Val: v})
			}
		})
	}
	return NewCSR(len(idx), len(idx), entries)
}

// ConnectedComponents labels the vertices of the undirected graph whose
// (possibly asymmetric) adjacency is m, treating any stored nonzero as an
// edge in both directions. It returns the component label of each vertex
// and the number of components.
func (m *CSR) ConnectedComponents() ([]int, int) {
	if m.rows != m.cols {
		panic("sparse: ConnectedComponents requires a square matrix")
	}
	n := m.rows
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	// Union-find over the stored edges treats the graph as undirected
	// without materializing the transpose.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			ri, rj := find(i), find(m.colIdx[k])
			if ri != rj {
				parent[ri] = rj
			}
		}
	}
	next := 0
	for i := 0; i < n; i++ {
		r := find(i)
		if label[r] < 0 {
			label[r] = next
			next++
		}
		label[i] = label[r]
	}
	return label, next
}
