package fednet

import (
	"encoding/gob"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/privacy"
)

// runWireRound is runRound over pipes with an explicit wire
// configuration shared by every client.
func runWireRound(t *testing.T, devices []*mat.Dense, l int, srv *Server, wire WireOptions) ([][]int, ServeStats) {
	t.Helper()
	z := len(devices)
	serverConns := make([]net.Conn, z)
	results := make([]ClientResult, z)
	errs := make([]error, z)
	var cw sync.WaitGroup
	for dev := range devices {
		sc, cc := net.Pipe()
		serverConns[dev] = sc
		cw.Add(1)
		go func(dev int, conn net.Conn) {
			defer cw.Done()
			dial := func() (net.Conn, error) { return conn, nil }
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			results[dev], errs[dev] = RunClientDialerWire(dial, dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, RetryPolicy{}, wire, rng)
		}(dev, cc)
	}
	stats, serveErr := serveConns(srv, serverConns)
	cw.Wait()
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	labels := make([][]int, z)
	for dev, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", dev, err)
		}
		labels[dev] = results[dev].Labels
	}
	return labels, stats
}

// TestQuantizedRoundMatchesInProcessQuantizer is the Section IV-E
// cross-check: a networked round whose uploads travel quantized must
// (a) pool exactly the matrix privacy.Quantizer.Apply would produce in
// process, so the labels match the in-process quantized scheme, and
// (b) report a payload volume that agrees bit for bit with the
// n·q·Σr⁽ᶻ⁾ accounting core computes for the same settings.
func TestQuantizedRoundMatchesInProcessQuantizer(t *testing.T) {
	const l, bits = 4, 8
	devices, _ := fedDevices(20, 3, l, 12, 2, 8, 170)
	q := privacy.Quantizer{Bits: bits}
	srv := &Server{L: l, Expect: len(devices), Seed: 99}
	netLabels, stats := runWireRound(t, devices, l, srv, WireOptions{Quant: &q})

	locals := make([]core.LocalResult, len(devices))
	for dev := range devices {
		rng := rand.New(rand.NewSource(int64(1000 + dev)))
		locals[dev] = core.LocalClusterAndSample(devices[dev], core.LocalOptions{UseEigengap: true}, rng)
		if _, err := q.Apply(locals[dev].Samples); err != nil {
			t.Fatalf("quantize local %d: %v", dev, err)
		}
	}
	res := core.Aggregate(devices, locals, l, core.Options{QuantBits: bits}, rand.New(rand.NewSource(99)))
	a := core.FlattenLabels(netLabels)
	b := core.FlattenLabels(res.Labels)
	if metrics.Accuracy(a, b) != 100 {
		t.Fatal("quantized network round and in-process quantized scheme disagree on the partition")
	}
	if stats.UplinkPayloadBits != res.UplinkBits {
		t.Fatalf("fednet payload accounting %d bits, core says %d", stats.UplinkPayloadBits, res.UplinkBits)
	}
	if stats.UplinkPayloadBits <= 0 {
		t.Fatal("no payload bits accounted")
	}
}

// TestQuantizedWireShrinksUplink pins the acceptance claim: at equal
// accuracy, the quantized wire measurably shrinks the gob-encoded
// uplink volume versus float64 passthrough.
func TestQuantizedWireShrinksUplink(t *testing.T) {
	const l = 4
	devices, truth := fedDevices(20, 3, l, 12, 2, 8, 171)
	q := privacy.Quantizer{Bits: 8}
	quantLabels, quantStats := runWireRound(t, devices, l,
		&Server{L: l, Expect: len(devices), Seed: 99}, WireOptions{Quant: &q})
	floatLabels, floatStats := runWireRound(t, devices, l,
		&Server{L: l, Expect: len(devices), Seed: 99}, WireOptions{})

	flat := core.FlattenLabels(truth)
	accQ := metrics.Accuracy(flat, core.FlattenLabels(quantLabels))
	accF := metrics.Accuracy(flat, core.FlattenLabels(floatLabels))
	if accF < 95 {
		t.Fatalf("float64 baseline accuracy %.1f%%", accF)
	}
	if accQ < accF {
		t.Fatalf("quantized accuracy %.1f%% below float64 %.1f%%", accQ, accF)
	}
	// 8 of 64 bits per value: the payload shrinks 8x; even with gob
	// framing on top the total uplink must drop by at least half.
	if quantStats.UplinkBytes*2 >= floatStats.UplinkBytes {
		t.Fatalf("quantized uplink %d bytes does not measurably undercut float64 %d",
			quantStats.UplinkBytes, floatStats.UplinkBytes)
	}
	if quantStats.UplinkPayloadBits*8 != floatStats.UplinkPayloadBits {
		t.Fatalf("payload accounting: quant %d bits, float64 %d bits (want exactly 8x)",
			quantStats.UplinkPayloadBits, floatStats.UplinkPayloadBits)
	}
}

func TestUploadValidateQuantCodec(t *testing.T) {
	q := privacy.Quantizer{Bits: 6}
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = float64(i%5)/5 - 0.4
	}
	packed, err := q.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	good := SampleUpload{Rows: 3, Cols: 4, Codec: CodecQuant,
		Quant: &QuantPayload{Bits: 6, Packed: packed}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid quant upload rejected: %v", err)
	}
	decoded, err := good.Samples()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if decoded[i] != q.Roundtrip(v) {
			t.Fatalf("decoded[%d] = %v, want cell center %v", i, decoded[i], q.Roundtrip(v))
		}
	}
	if bits := good.PayloadBits(); bits != 12*6 {
		t.Fatalf("quant PayloadBits %d, want %d", bits, 12*6)
	}
	raw := SampleUpload{Rows: 3, Cols: 4, Data: make([]float64, 12)}
	if bits := raw.PayloadBits(); bits != 12*64 {
		t.Fatalf("float64 PayloadBits %d, want %d", bits, 12*64)
	}

	for name, bad := range map[string]SampleUpload{
		"missing payload": {Rows: 3, Cols: 4, Codec: CodecQuant},
		"short payload": {Rows: 3, Cols: 4, Codec: CodecQuant,
			Quant: &QuantPayload{Bits: 6, Packed: packed[:len(packed)-1]}},
		"raw values alongside": {Rows: 3, Cols: 4, Codec: CodecQuant, Data: vals,
			Quant: &QuantPayload{Bits: 6, Packed: packed}},
		"invalid bits": {Rows: 3, Cols: 4, Codec: CodecQuant,
			Quant: &QuantPayload{Bits: 0, Packed: packed}},
		"non-finite range": {Rows: 3, Cols: 4, Codec: CodecQuant,
			Quant: &QuantPayload{Bits: 6, Max: math.Inf(1), Packed: packed}},
		"quant payload on float64": {Rows: 3, Cols: 4, Data: vals,
			Quant: &QuantPayload{Bits: 6, Packed: packed}},
		"unknown codec": {Rows: 3, Cols: 4, Codec: "zstd", Data: vals},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestUploadRefusesOverflowingPackedLength: Rows·Cols = 2^61 values at
// 8 bits is 2^64 bits, which wraps PackedLen to 0. Such an upload with an
// empty payload used to pass Validate, and Samples then panicked
// allocating 2^61 values in the collector, which has no recover.
func TestUploadRefusesOverflowingPackedLength(t *testing.T) {
	rows := 1 << 30
	cols := (math.MaxInt>>2 + 1) / rows
	u := SampleUpload{Rows: rows, Cols: cols, Codec: CodecQuant,
		Quant: &QuantPayload{Bits: 8, Packed: []byte{}}}
	if err := u.Validate(); err == nil {
		t.Fatal("upload whose packed length overflows accepted")
	}
	if _, err := u.Samples(); err == nil {
		t.Fatal("Samples decoded an upload whose packed length overflows")
	}
}

// TestServerRejectsUnadvertisedCodec: a float64-only server must
// reject a quantized upload (codec police), while a wire-configured
// client talking to it silently falls back to passthrough.
func TestServerRejectsUnadvertisedCodec(t *testing.T) {
	q := privacy.Quantizer{Bits: 8}
	devices, _ := fedDevices(20, 3, 4, 4, 2, 8, 172)
	srv := &Server{L: 4, Expect: 4, Seed: 99, Codecs: []WireCodec{CodecFloat64}}
	_, stats := runWireRound(t, devices, 4, srv, WireOptions{Quant: &q})
	// Fallback happened: every pooled value crossed at 64 bits.
	if want := int64(stats.Samples) * 20 * 64; stats.UplinkPayloadBits != want {
		t.Fatalf("fallback round payload %d bits, want %d", stats.UplinkPayloadBits, want)
	}

	// A client that ignores the advertisement gets rejected.
	sc, cc := net.Pipe()
	one := &Server{L: 4, Expect: 1, Seed: 99, Codecs: []WireCodec{CodecFloat64}}
	done := make(chan error, 1)
	go func() {
		_, err := serveConns(one, []net.Conn{sc})
		done <- err
	}()
	dec := gob.NewDecoder(cc)
	var hello RoundHello
	if err := dec.Decode(&hello); err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	vals := []float64{0.1, 0.2}
	packed, err := q.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		gob.NewEncoder(cc).Encode(SampleUpload{
			DeviceID: 9, Nonce: hello.Nonce, Attempt: 1, Rows: 2, Cols: 1,
			Codec: CodecQuant, Quant: &QuantPayload{Bits: 8, Packed: packed},
		})
	}()
	var reply AssignmentReply
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if !strings.Contains(reply.Err, "unadvertised codec") {
		t.Fatalf("want codec rejection, got %q", reply.Err)
	}
	<-done
}
