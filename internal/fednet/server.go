package fednet

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
)

// Server aggregates one-shot Fed-SC uploads and answers each client with
// its sample assignments.
type Server struct {
	// L is the number of global clusters.
	L int
	// Expect is the number of distinct client devices that will report;
	// the central clustering runs once all of them have uploaded.
	Expect int
	// Central configures the Phase 2 algorithm (SSC by default).
	Central core.CentralOptions
	// Seed makes the server-side clustering and the round nonce
	// deterministic.
	Seed int64
	// WaitTimeout, when positive, makes the round straggler-tolerant:
	// the timer starts at the first accepted connection, and when it
	// fires the server proceeds with the devices that have uploaded so
	// far (at least MinClients) instead of blocking on absent devices —
	// a one-shot scheme cannot wait forever for a phone that went
	// offline. Zero keeps the strict wait-for-all behaviour. Retrying
	// devices may reconnect at any point before the round closes,
	// including during the grace period.
	WaitTimeout time.Duration
	// MinClients is the minimum number of devices required to run the
	// round when WaitTimeout fires (default 1).
	MinClients int
	// Codecs lists the upload encodings the server advertises and
	// accepts, in preference order; nil accepts every codec (float64
	// passthrough and the quantized Section IV-E wire). An upload whose
	// codec was not advertised is rejected.
	Codecs []WireCodec
	// MaxUploadBytes, when positive, caps the gob-encoded size of a
	// single upload; a connection exceeding it is rejected before the
	// oversized payload reaches the decoder's allocations.
	MaxUploadBytes int64
	// Export, when set, builds a serving artifact (core.Model: the
	// per-global-cluster subspace bases estimated from the pooled
	// samples) after the central clustering and returns it in
	// ServeStats.Model — the bridge from a one-shot round to the
	// inference tier (internal/serve). Each cluster's basis dimension is
	// estimated from its pooled spectrum.
	Export bool
	// Obs receives the wire metrics of every round (uplink/downlink
	// bytes, retries, supersedes, round latency); nil publishes to the
	// process-wide obs.Default registry.
	Obs *obs.Registry
	// Trace, when non-nil, records the round's phase tree — collect
	// (with one zero-width span per accepted upload), central
	// clustering, and the reply fan-out.
	Trace *obs.Tracer
}

// advertised resolves a server's codec list: nil accepts every codec.
func advertised(codecs []WireCodec) []WireCodec {
	if codecs != nil {
		return codecs
	}
	return []WireCodec{CodecQuant, CodecFloat64}
}

// registry resolves a metrics destination: nil is obs.Default.
func registry(r *obs.Registry) *obs.Registry {
	if r != nil {
		return r
	}
	return obs.Default()
}

// ServeStats summarizes one completed aggregation round.
type ServeStats struct {
	// UplinkBytes is the gob-encoded uplink volume actually received,
	// including aborted partial attempts that were later retried.
	UplinkBytes int64
	// UplinkPayloadBits is the Section IV-E payload volume of the
	// pooled uploads: values × bits-per-value under each device's
	// negotiated codec (n·q·Σr⁽ᶻ⁾ when every device quantizes at q
	// bits). Unlike UplinkBytes it excludes gob framing, duplicates,
	// and aborted attempts, so it is directly comparable with
	// core.Result.UplinkBits.
	UplinkPayloadBits int64
	// DownlinkBytes is the gob-encoded downlink volume actually sent
	// (round hellos and assignment replies), so the Section IV-E
	// communication accounting covers both directions.
	DownlinkBytes int64
	// Samples is the total number of samples pooled at the server.
	Samples int
	// Devices is the number of distinct devices whose upload was pooled
	// (may be fewer than Server.Expect in straggler-tolerant mode).
	Devices int
	// Retries is how many uploads idempotently replaced an earlier
	// attempt by the same device (the dedup table's hit count).
	Retries int
	// Failures describes connections whose upload was rejected, timed
	// out, or was superseded by a retry; in straggler-tolerant mode
	// they do not fail the round.
	Failures []string
	// Model is the serving artifact built from the round; only set when
	// Server.Export is enabled and at least one sample was pooled.
	Model *core.Model
}

// Serve collects uploads from s.Expect distinct devices on ln, runs the
// central clustering, and replies to every connection with its
// assignment slice. It returns after all replies are written; the
// listener is not closed. Serve is a single aggregation round, matching
// the one-shot nature of the scheme.
//
// Client state is keyed by DeviceID and the round nonce: a device that
// reconnects (its first attempt was reset mid-upload, or it never saw
// the reply) idempotently replaces its earlier upload instead of being
// pooled twice, and an upload replayed from a different round carries a
// stale nonce and is rejected. Connections may therefore outnumber
// devices; every accepted connection receives a reply.
func (s *Server) Serve(ln net.Listener) (ServeStats, error) {
	if s.Expect <= 0 {
		return ServeStats{}, fmt.Errorf("fednet: server expects a positive client count, got %d", s.Expect)
	}
	minClients := max(s.MinClients, 1)
	roundStart := time.Now()
	root := s.Trace.Start("fednet.round", obs.Int("expect", s.Expect), obs.Int("L", s.L))
	defer root.End()
	collect := root.Start("collect")
	// End is idempotent (first call wins): the explicit End below pins
	// the measured window, the defer covers the abort returns so the
	// canonical trace is never truncated.
	defer collect.End()
	codecs := advertised(s.Codecs)
	col := newCollector(ln, collectPolicy{
		expect: s.Expect, wait: s.WaitTimeout,
		grace: true, minClients: minClients,
		codecs: codecs, maxUploadBytes: s.MaxUploadBytes,
	})
	defer col.close()
	nonce := roundNonce(s.Seed)
	rd, err := col.collect(collect, RoundHello{Nonce: nonce, Codecs: codecs}, nonce, nil)
	if err != nil {
		s.aborted()
		return ServeStats{}, fmt.Errorf("fednet: %w", err)
	}
	collect.End()

	// Pool the valid uploads in ascending DeviceID order, so the label
	// vector is independent of arrival interleaving — the property the
	// chaos replay tests pin down.
	var parts []*mat.Dense
	offsets := map[int]int{}
	total := 0
	ambient := -1
	var payloadBits int64
	for _, id := range rd.ids() {
		c := rd.byDevice[id]
		u := c.upload
		if u.Cols > 0 && ambient < 0 {
			ambient = u.Rows
		}
		if u.Cols > 0 && u.Rows != ambient {
			c.err = fmt.Errorf("fednet: ambient dimension %d differs from %d", u.Rows, ambient)
			rd.failed = append(rd.failed, c)
			delete(rd.byDevice, id)
			continue
		}
		offsets[id] = total
		parts = append(parts, mat.NewDenseData(u.Rows, u.Cols, c.values))
		total += u.Cols
		payloadBits += u.PayloadBits()
	}
	var labels []int
	var exported *core.Model
	phase2 := root.Start("central", obs.Int("devices", len(parts)), obs.Int("samples", total))
	// Covers the export-failure abort; the explicit End below pins the
	// phase boundary on the success path (End is idempotent).
	defer phase2.End()
	if total > 0 {
		theta := mat.HStack(parts...)
		rng := rand.New(rand.NewSource(s.Seed))
		// The TSC neighbor rule q = max(3, ⌈Z/L⌉) must see the number of
		// devices that actually contributed samples — in straggler-
		// tolerant mode that can be fewer than Expect.
		res := core.CentralCluster(theta, len(parts), s.L, s.Central, rng)
		labels = res.Labels
		if s.Export {
			method := s.Central.Method
			if method == "" {
				method = core.CentralSSC
			}
			m, err := core.BuildModel(theta, labels, s.L, 0, method)
			if err != nil {
				rd.close()
				s.aborted()
				return ServeStats{}, fmt.Errorf("fednet: export model: %w", err)
			}
			exported = m
		}
	}
	phase2.End()
	msg := func(c *clientState) any {
		if c.err != nil {
			return AssignmentReply{Err: c.err.Error()}
		}
		off := offsets[c.upload.DeviceID]
		return AssignmentReply{Assignments: labels[off : off+c.upload.Cols]}
	}
	replySpan := root.Start("reply")
	col.reply(rd, msg)
	replySpan.End()

	stats := ServeStats{
		UplinkBytes:       col.up.Load(),
		UplinkPayloadBits: payloadBits,
		DownlinkBytes:     col.down.Load(),
		Samples:           total,
		Devices:           len(rd.byDevice),
		Retries:           rd.retries,
		Failures:          rd.failures(),
		Model:             exported,
	}
	s.publish(stats, time.Since(roundStart))
	if s.WaitTimeout > 0 {
		// Straggler-tolerant mode: the round succeeds as long as enough
		// devices made it; individual failures are reported in stats.
		if len(rd.byDevice) < minClients {
			return stats, fmt.Errorf("fednet: only %d of minimum %d devices uploaded successfully", len(rd.byDevice), minClients)
		}
		return stats, nil
	}
	if l := rd.losers(); len(l) > 0 {
		return stats, fmt.Errorf("fednet: %s failed: %w", l[0].who(), l[0].err)
	}
	return stats, nil
}

// aborted counts a round that never reached the reply phase.
func (s *Server) aborted() {
	registry(s.Obs).Counter("fedsc_fednet_rounds_aborted_total", "Rounds aborted before the reply phase (listener death or too few devices).").Inc()
}

// publish pushes one completed round's wire totals into the metrics
// registry. Aborted rounds (listener death, too few devices) never
// reach it; they only bump fedsc_fednet_rounds_aborted_total.
func (s *Server) publish(stats ServeStats, elapsed time.Duration) {
	reg := registry(s.Obs)
	reg.Counter("fedsc_fednet_rounds_total", "Aggregation rounds that reached the reply phase.").Inc()
	reg.Counter("fedsc_fednet_uplink_bytes_total", "Gob-encoded upload bytes received, including aborted partial attempts.").Add(stats.UplinkBytes)
	reg.Counter("fedsc_fednet_uplink_payload_bits_total", "Section IV-E payload bits pooled (values x bits-per-value under the negotiated codec).").Add(stats.UplinkPayloadBits)
	reg.Counter("fedsc_fednet_downlink_bytes_total", "Gob-encoded bytes sent to devices (round hellos and replies).").Add(stats.DownlinkBytes)
	reg.Counter("fedsc_fednet_supersedes_total", "Uploads idempotently replaced by a newer attempt from the same device.").Add(int64(stats.Retries))
	reg.Counter("fedsc_fednet_upload_failures_total", "Connections whose upload was rejected, timed out, or superseded.").Add(int64(len(stats.Failures)))
	reg.Histogram("fedsc_fednet_round_devices", "Distinct devices pooled per round.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}).Observe(float64(stats.Devices))
	reg.Histogram("fedsc_fednet_round_samples", "Samples pooled per round.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096}).Observe(float64(stats.Samples))
	reg.Histogram("fedsc_fednet_round_seconds", "Wall time of a full aggregation round.",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60}).Observe(elapsed.Seconds())
}
