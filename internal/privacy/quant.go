package privacy

import (
	"fmt"
	"math"

	"fedsc/internal/mat"
)

// Quantizer uniformly quantizes float64 values into b-bit integers over
// a symmetric range [-Max, +Max]. It realizes the q-bit-per-float
// assumption of the paper's communication-cost analysis (Section IV-E)
// as an actual lossy codec, so the accuracy/bits tradeoff is measurable.
type Quantizer struct {
	// Bits per value, in [1, 32].
	Bits int
	// Max is the clipping range; Fed-SC samples are unit-norm, so 1.0
	// covers every coordinate. Zero defaults to 1.
	Max float64
}

func (q Quantizer) levels() int { return 1 << q.Bits }

func (q Quantizer) rng() float64 {
	if q.Max <= 0 {
		return 1
	}
	return q.Max
}

// Validate reports whether the quantizer is usable: Bits in [1, 32] and
// a range whose cells decode to distinct finite centers. A Max so large
// that 2·Max overflows decodes every index to +Inf, and one so small
// that a cell is narrower than the smallest normal float decodes every
// index to the same value; neither survives a Pack/Unpack roundtrip.
func (q Quantizer) Validate() error {
	if q.Bits < 1 || q.Bits > 32 {
		return fmt.Errorf("privacy: quantizer bits %d outside [1,32]", q.Bits)
	}
	if m := q.rng(); !(m <= math.MaxFloat64/2) || 2*m/float64(q.levels()) < 0x1p-1022 {
		return fmt.Errorf("privacy: quantizer range %g has no representable %d-bit cells", q.Max, q.Bits)
	}
	return nil
}

// Encode maps v to its level index in [0, 2^Bits).
func (q Quantizer) Encode(v float64) uint32 {
	m := q.rng()
	if v > m {
		v = m
	}
	if v < -m {
		v = -m
	}
	n := q.levels()
	// Midrise mapping of [-m, m] onto n levels.
	idx := int(math.Floor((v + m) / (2 * m) * float64(n)))
	if idx >= n {
		idx = n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return uint32(idx)
}

// Decode maps a level index back to the center of its cell.
func (q Quantizer) Decode(idx uint32) float64 {
	m := q.rng()
	n := float64(q.levels())
	return -m + (float64(idx)+0.5)*(2*m/n)
}

// Roundtrip quantizes and dequantizes v.
func (q Quantizer) Roundtrip(v float64) float64 { return q.Decode(q.Encode(v)) }

// Apply quantizes every entry of samples in place, simulating the lossy
// uplink. Returns the maximum absolute quantization error observed.
func (q Quantizer) Apply(samples *mat.Dense) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	maxErr := 0.0
	data := samples.Data()
	for i, v := range data {
		nv := q.Roundtrip(v)
		if e := math.Abs(nv - v); e > maxErr {
			maxErr = e
		}
		data[i] = nv
	}
	return maxErr, nil
}
