package privacy

import (
	"fmt"
	"math"
)

// PackedLen returns the number of bytes Pack produces for count values:
// count*Bits bits rounded up to a whole byte. This is the §IV-E uplink
// payload size for one device's samples at the configured rate. count
// must be at most MaxCount, or the bit count overflows.
func (q Quantizer) PackedLen(count int) int {
	return (count*q.Bits + 7) / 8
}

// MaxCount is the largest value count whose packed length PackedLen can
// compute: count·Bits + 7 must fit an int. The quantizer must be valid.
func (q Quantizer) MaxCount() int {
	return (math.MaxInt - 7) / q.Bits
}

// Pack encodes each value to its level index and concatenates the
// indices MSB-first into a contiguous bit stream. The final byte is
// zero-padded, so Pack(values) is deterministic: equal inputs always
// produce byte-identical output (retried and duplicated uploads carry
// the same bytes).
func (q Quantizer) Pack(values []float64) ([]byte, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, q.PackedLen(len(values)))
	var acc uint64 // bit accumulator, top `fill` bits pending
	fill := 0
	pos := 0
	for _, v := range values {
		acc |= uint64(q.Encode(v)) << (64 - q.Bits - fill)
		fill += q.Bits
		for fill >= 8 {
			out[pos] = byte(acc >> 56)
			pos++
			acc <<= 8
			fill -= 8
		}
	}
	if fill > 0 {
		out[pos] = byte(acc >> 56)
	}
	return out, nil
}

// Unpack reverses Pack: it reads count Bits-wide indices from the
// stream and decodes each to the center of its quantization cell, so
// Unpack(Pack(v))[i] == Roundtrip(v[i]) exactly. It rejects streams of
// the wrong length and non-zero padding bits, so a truncated or
// bit-flipped tail cannot pass silently.
func (q Quantizer) Unpack(packed []byte, count int) ([]float64, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("privacy: unpack count %d negative", count)
	}
	if count > q.MaxCount() {
		return nil, fmt.Errorf("privacy: unpack count %d at %d bits overflows the packed length", count, q.Bits)
	}
	if want := q.PackedLen(count); len(packed) != want {
		return nil, fmt.Errorf("privacy: unpack: %d bytes for %d values at %d bits, want %d",
			len(packed), count, q.Bits, want)
	}
	out := make([]float64, count)
	var acc uint64
	fill := 0
	pos := 0
	for i := range out {
		for fill < q.Bits {
			acc |= uint64(packed[pos]) << (56 - fill)
			pos++
			fill += 8
		}
		idx := uint32(acc >> (64 - q.Bits))
		acc <<= q.Bits
		fill -= q.Bits
		out[i] = q.Decode(idx)
	}
	if fill > 0 && acc>>(64-fill) != 0 {
		return nil, fmt.Errorf("privacy: unpack: non-zero padding bits")
	}
	return out, nil
}
