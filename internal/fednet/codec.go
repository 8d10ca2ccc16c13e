package fednet

import (
	"fmt"
	"math"

	"fedsc/internal/privacy"
)

// WireCodec names an upload payload encoding. The codec is negotiated
// per connection: the server advertises the codecs it accepts in the
// round hello, and the client picks the richest one it can produce.
type WireCodec string

const (
	// CodecFloat64 is the passthrough encoding: samples travel as raw
	// float64 values (64 bits each), the pre-negotiation behaviour. An
	// empty Codec field means the same, so hand-rolled and historical
	// uploads keep validating.
	CodecFloat64 WireCodec = "float64"
	// CodecQuant is the quantized encoding of Section IV-E: each value
	// is a Bits-wide level index of a midrise uniform quantizer over
	// [-Max, Max], bit-packed MSB-first. The server decodes indices to
	// cell centers, so a quantized networked round pools exactly the
	// matrix privacy.Quantizer.Apply would produce in process.
	CodecQuant WireCodec = "quant"
)

// QuantPayload is the CodecQuant upload body: the quantizer parameters
// (the codebook is implied by Bits and Max — uniform midrise) plus the
// packed level indices for Rows×Cols values.
type QuantPayload struct {
	// Bits per value, in [1, 32].
	Bits int
	// Max is the quantizer clipping range; non-positive means the
	// unit-norm default of 1.
	Max float64
	// Packed is the MSB-first bit stream of level indices.
	Packed []byte
}

// codec normalizes the empty codec to float64 passthrough.
func (u SampleUpload) codec() WireCodec {
	if u.Codec == "" {
		return CodecFloat64
	}
	return u.Codec
}

// quantizer reconstructs the codec from a quantized upload's payload
// parameters.
func (p *QuantPayload) quantizer() privacy.Quantizer {
	return privacy.Quantizer{Bits: p.Bits, Max: p.Max}
}

// codecOffered reports whether codecs (the hello's advertisement)
// includes c; an empty advertisement offers only float64 passthrough.
func codecOffered(codecs []WireCodec, c WireCodec) bool {
	if len(codecs) == 0 {
		return c == CodecFloat64
	}
	for _, o := range codecs {
		if o == c {
			return true
		}
	}
	return false
}

// validateWire checks the codec-specific payload invariants; the
// shared dimension checks have already passed.
func (u SampleUpload) validateWire() error {
	switch u.codec() {
	case CodecFloat64:
		if u.Quant != nil {
			return fmt.Errorf("fednet: float64 upload carries a quantized payload")
		}
		if len(u.Data) != u.Rows*u.Cols {
			return fmt.Errorf("fednet: payload length %d does not match %dx%d", len(u.Data), u.Rows, u.Cols)
		}
		for i, v := range u.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fednet: non-finite sample entry %g at index %d", v, i)
			}
		}
		return nil
	case CodecQuant:
		if u.Quant == nil {
			return fmt.Errorf("fednet: quantized upload without payload")
		}
		if len(u.Data) != 0 {
			return fmt.Errorf("fednet: quantized upload also carries %d raw values", len(u.Data))
		}
		q := u.Quant.quantizer()
		if err := q.Validate(); err != nil {
			return err
		}
		// A hostile Max of NaN or ±Inf would decode every index to a
		// non-finite cell center and poison the pooled Gram matrices
		// exactly like a non-finite float64 entry.
		if math.IsNaN(u.Quant.Max) || math.IsInf(u.Quant.Max, 0) {
			return fmt.Errorf("fednet: non-finite quantizer range %g", u.Quant.Max)
		}
		// Rows×Cols fits an int (Validate), but times Bits it may not.
		if n := u.Rows * u.Cols; n > q.MaxCount() {
			return fmt.Errorf("fednet: %dx%d values at %d bits overflow the packed length", u.Rows, u.Cols, u.Quant.Bits)
		}
		if want := q.PackedLen(u.Rows * u.Cols); len(u.Quant.Packed) != want {
			return fmt.Errorf("fednet: quantized payload %d bytes for %dx%d values at %d bits, want %d",
				len(u.Quant.Packed), u.Rows, u.Cols, u.Quant.Bits, want)
		}
		return nil
	default:
		return fmt.Errorf("fednet: unknown wire codec %q", u.Codec)
	}
}

// Samples decodes the upload payload to row-major float64 values —
// passthrough for float64, cell centers for the quantized codec (equal
// to privacy.Quantizer.Roundtrip of the original values, so the server
// pools the same matrix an in-process quantized round would).
func (u SampleUpload) Samples() ([]float64, error) {
	switch u.codec() {
	case CodecFloat64:
		return u.Data, nil
	case CodecQuant:
		if u.Quant == nil {
			return nil, fmt.Errorf("fednet: quantized upload without payload")
		}
		return u.Quant.quantizer().Unpack(u.Quant.Packed, u.Rows*u.Cols)
	default:
		return nil, fmt.Errorf("fednet: unknown wire codec %q", u.Codec)
	}
}

// PayloadBits is the Section IV-E payload size of the upload: values ×
// bits-per-value under the negotiated codec (64 for passthrough). This
// is the quantity the paper's n·q·Σr⁽ᶻ⁾ uplink formula counts; the
// gob-framed UplinkBytes adds the wire's framing overhead on top.
func (u SampleUpload) PayloadBits() int64 {
	bits := 64
	if u.codec() == CodecQuant && u.Quant != nil {
		bits = u.Quant.Bits
	}
	return int64(u.Rows) * int64(u.Cols) * int64(bits)
}

// WireOptions configures the client side of the codec negotiation.
type WireOptions struct {
	// Quant, when non-nil, makes the client upload quantized samples
	// whenever the server advertises CodecQuant, falling back to
	// float64 passthrough otherwise. Packing is stateless and
	// deterministic, so every retry of an attempt carries byte-identical
	// payloads and the server's dedup replacement stays idempotent.
	Quant *privacy.Quantizer
}

// encodeWire finishes an upload for one connection after the hello:
// it picks the codec from the server's advertisement and, for
// CodecQuant, replaces the raw values with the packed level indices.
func encodeWire(upload SampleUpload, wire WireOptions, offered []WireCodec) (SampleUpload, error) {
	if wire.Quant != nil && codecOffered(offered, CodecQuant) {
		q := *wire.Quant
		packed, err := q.Pack(upload.Data)
		if err != nil {
			return SampleUpload{}, fmt.Errorf("fednet: device %d quantize upload: %w", upload.DeviceID, err)
		}
		upload.Codec = CodecQuant
		upload.Quant = &QuantPayload{Bits: q.Bits, Max: q.Max, Packed: packed}
		upload.Data = nil
		return upload, nil
	}
	if !codecOffered(offered, CodecFloat64) {
		return SampleUpload{}, fmt.Errorf("fednet: device %d cannot satisfy server codecs %v", upload.DeviceID, offered)
	}
	upload.Codec = CodecFloat64
	return upload, nil
}
