package privacy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// packCase draws one roundtrip case from seed: a quantizer of 1 to 32
// bits and up to 39 values in [-1, 1).
func packCase(seed int64) (Quantizer, []float64) {
	r := rand.New(rand.NewSource(seed))
	bits := 1 + r.Intn(32)
	q := Quantizer{Bits: bits}
	n := r.Intn(40)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 2*r.Float64() - 1
	}
	return q, vals
}

func TestPackUnpackRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	f := func(seed int64) bool {
		q, vals := packCase(seed)
		n := len(vals)
		packed, err := q.Pack(vals)
		if err != nil {
			return false
		}
		if len(packed) != q.PackedLen(n) {
			return false
		}
		got, err := q.Unpack(packed, n)
		if err != nil {
			return false
		}
		for i, v := range vals {
			// Wire roundtrip must equal the in-process lossy codec
			// exactly: same cell center, bit for bit.
			if got[i] != q.Roundtrip(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// wrapCount is the count whose bit count at 8 bits is exactly 2^(int
// size), so count·8 + 7 wraps to 7 and PackedLen to 0.
const wrapCount = math.MaxInt>>2 + 1

// TestUnpackRefusesOverflowingCount: a count whose packed length wraps
// to 0 used to pass the length check with an empty stream and panic in
// the allocation of count values.
func TestUnpackRefusesOverflowingCount(t *testing.T) {
	q := Quantizer{Bits: 8}
	if _, err := q.Unpack(nil, wrapCount); err == nil {
		t.Fatal("count overflowing the packed length accepted")
	}
	if _, err := q.Unpack(nil, q.MaxCount()+1); err == nil {
		t.Fatal("count past MaxCount accepted")
	}
	for _, bits := range []int{1, 8, 32} {
		q := Quantizer{Bits: bits}
		if got := q.PackedLen(q.MaxCount()); got <= 0 {
			t.Fatalf("PackedLen(MaxCount) at %d bits = %d, want positive", bits, got)
		}
	}
}

// TestValidateRejectsUnrepresentableRange: a range whose doubled width
// overflows decoded every index to +Inf, and one whose cells underflow
// decoded them all to -Max, so Unpack accepted streams it could not
// reproduce.
func TestValidateRejectsUnrepresentableRange(t *testing.T) {
	for _, m := range []float64{math.NaN(), math.Inf(1), 1e308, 5e-324} {
		q := Quantizer{Bits: 8, Max: m}
		if err := q.Validate(); err == nil {
			t.Errorf("Max %g accepted", m)
		}
		if _, err := q.Unpack([]byte{5}, 1); err == nil {
			t.Errorf("Unpack at Max %g accepted", m)
		}
	}
	for _, m := range []float64{0, -1, math.Inf(-1), 1, math.MaxFloat64 / 2, 0x1p-1015} {
		if err := (Quantizer{Bits: 8, Max: m}).Validate(); err != nil {
			t.Errorf("Max %g refused: %v", m, err)
		}
	}
}

// FuzzUnpack feeds arbitrary streams, counts and quantizers to Unpack:
// it must not panic, a success must yield count values, and those
// values must pack back to the very bytes they came from.
func FuzzUnpack(f *testing.F) {
	seeds := rand.New(rand.NewSource(301))
	for range 16 {
		q, vals := packCase(seeds.Int63())
		packed, err := q.Pack(vals)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q.Bits, q.Max, packed, len(vals))
	}
	f.Add(8, 0.0, []byte{}, wrapCount)
	f.Add(8, 1e308, []byte{5}, 1)
	f.Add(8, 5e-324, []byte{5}, 1)
	f.Fuzz(func(t *testing.T, bits int, max float64, packed []byte, count int) {
		q := Quantizer{Bits: bits, Max: max}
		got, err := q.Unpack(packed, count)
		if err != nil {
			return
		}
		if len(got) != count {
			t.Fatalf("Unpack returned %d values for count %d", len(got), count)
		}
		again, err := q.Pack(got)
		if err != nil {
			t.Fatalf("Pack refused what Unpack accepted: %v", err)
		}
		if !bytes.Equal(again, packed) {
			t.Fatalf("repacked % x, want % x", again, packed)
		}
	})
}

func TestPackDeterministic(t *testing.T) {
	q := Quantizer{Bits: 5}
	vals := []float64{-1, -0.3, 0, 0.25, 0.9, 1}
	a, err := q.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("pack not deterministic: % x vs % x", a, b)
	}
}

func TestPackedLenMatchesBitCount(t *testing.T) {
	for _, bits := range []int{1, 3, 8, 13, 32} {
		q := Quantizer{Bits: bits}
		for _, n := range []int{0, 1, 7, 64} {
			want := (n*bits + 7) / 8
			if got := q.PackedLen(n); got != want {
				t.Fatalf("PackedLen(%d) at %d bits = %d, want %d", n, bits, got, want)
			}
		}
	}
}

func TestUnpackRejectsBadInput(t *testing.T) {
	q := Quantizer{Bits: 3}
	vals := []float64{0.1, -0.4, 0.7}
	packed, err := q.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Unpack(packed, 6); err == nil {
		t.Fatal("wrong count accepted")
	}
	if _, err := q.Unpack(packed[:len(packed)-1], 3); err == nil && len(packed) > 1 {
		t.Fatal("truncated stream accepted")
	}
	if _, err := q.Unpack(packed, -1); err == nil {
		t.Fatal("negative count accepted")
	}
	// 3 values x 3 bits = 9 bits in 2 bytes: 7 padding bits must be zero.
	bad := append([]byte(nil), packed...)
	bad[len(bad)-1] |= 0x01
	if _, err := q.Unpack(bad, 3); err == nil {
		t.Fatal("non-zero padding accepted")
	}
	if _, err := (Quantizer{Bits: 0}).Pack(vals); err == nil {
		t.Fatal("invalid quantizer accepted by Pack")
	}
	if _, err := (Quantizer{Bits: 33}).Unpack(packed, 3); err == nil {
		t.Fatal("invalid quantizer accepted by Unpack")
	}
}

func TestPackErrorWithinHalfCell(t *testing.T) {
	q := Quantizer{Bits: 10}
	rng := rand.New(rand.NewSource(302))
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = 2*rng.Float64() - 1
	}
	packed, err := q.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Unpack(packed, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	cell := 2.0 / float64(1<<10)
	for i, v := range vals {
		if math.Abs(got[i]-v) > cell/2+1e-12 {
			t.Fatalf("value %d error %v exceeds half cell", i, math.Abs(got[i]-v))
		}
	}
}
