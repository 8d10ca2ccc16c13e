package sparse

import (
	"math"
	"testing"
)

// FuzzNewCSR checks the CSR builder against a dense reference that adds
// the entries up in input order. Each 3-byte chunk of data is one entry:
// a row and a column in [-2, 9], so some fall out of range, and a value
// of k/10 for a signed byte k, so zeros, exact cancellations and sums
// whose rounding depends on their order all occur. NewCSR must panic
// exactly when an index is out of range; otherwise every stored value
// must equal the reference bit for bit, columns must ascend strictly
// within each row, and no zero may be stored.
func FuzzNewCSR(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{0, 1, 20, 1, 0, 20, 2, 2, 50, 0, 1, 30, 1, 1, 0})
	f.Add(uint8(2), uint8(4), []byte{1, 3, 1, 1, 3, 2, 1, 3, 3, 1, 3, 250, 0, 0, 7})
	f.Add(uint8(4), uint8(4), []byte{3, 0, 5, 3, 0, 251, 0, 3, 9})
	f.Add(uint8(2), uint8(2), []byte{2, 0, 1})
	f.Add(uint8(0), uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, rowsB, colsB uint8, data []byte) {
		rows, cols := int(rowsB%9), int(colsB%9)
		var entries []Coord
		inRange := true
		for i := 0; i+2 < len(data); i += 3 {
			e := Coord{Row: int(data[i]%12) - 2, Col: int(data[i+1]%12) - 2, Val: float64(int8(data[i+2])) / 10}
			inRange = inRange && e.Row >= 0 && e.Row < rows && e.Col >= 0 && e.Col < cols
			entries = append(entries, e)
		}
		m, panicked := build(rows, cols, entries)
		if panicked != !inRange {
			t.Fatalf("panicked=%v with every index in range=%v", panicked, inRange)
		}
		if panicked {
			return
		}
		want := make([][]float64, rows)
		for r := range want {
			want[r] = make([]float64, cols)
		}
		for _, e := range entries {
			want[e.Row][e.Col] += e.Val
		}
		nnz := 0
		for r := 0; r < rows; r++ {
			prev := -1
			m.Row(r, func(j int, v float64) {
				if j <= prev {
					t.Fatalf("row %d: column %d after %d", r, j, prev)
				}
				if v == 0 {
					t.Fatalf("(%d,%d): stored zero", r, j)
				}
				prev = j
			})
			for c, w := range want[r] {
				if got := m.At(r, c); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("(%d,%d) = %v, input-order sum %v", r, c, got, w)
				}
				if w != 0 {
					nnz++
				}
			}
		}
		if m.NNZ() != nnz {
			t.Fatalf("NNZ = %d, reference has %d nonzeros", m.NNZ(), nnz)
		}
	})
}

func build(rows, cols int, entries []Coord) (m *CSR, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return NewCSR(rows, cols, entries), false
}
