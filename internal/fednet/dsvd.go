package fednet

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"time"

	"fedsc/internal/dsvd"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
)

// The distributed-SVD wire runs the projection-splitting iteration of
// internal/dsvd over the same transport machinery as the one-shot
// round: gob messages, codec negotiation, per-attempt retries,
// highest-attempt dedup, and per-iteration nonces. Each iteration is
// one connection per device:
//
//	server → client  DSVDHello{Nonce, Iter, Basis}
//	client → server  SampleUpload{DeviceID, Nonce, Attempt, W_z}
//	server → client  DSVDReply{More | Err}
//
// Only the n×k iterate travels down and only the n×k projection
// W_z = A_z(A_zᵀ·Basis) travels up — the device's raw columns never
// leave it, and the uplink cost per device is independent of how many
// columns it holds. The client recomputes W_z from each connection's
// hello, so a retried or duplicated upload is byte-identical and the
// server's dedup replacement stays idempotent.

// DSVDHello is the per-iteration downlink message: the coordinator's
// current orthonormal iterate, flattened row-major.
type DSVDHello struct {
	// Nonce identifies (round, iteration); the upload must echo it, so
	// an upload replayed from an earlier iteration is rejected instead
	// of being pooled into the wrong sum.
	Nonce int64
	// Iter is the 0-based iteration index, for observability.
	Iter int
	// Rows is the ambient dimension n; K the subspace rank.
	Rows, K int
	// Basis is the row-major Rows×K orthonormal iterate.
	Basis []float64
	// Codecs advertises the accepted uplink encodings, as in RoundHello.
	Codecs []WireCodec
}

// Validate checks the hello before its payload touches the device's
// linear algebra — the client-side mirror of SampleUpload.Validate.
func (h DSVDHello) Validate() error {
	if h.Rows <= 0 || h.K <= 0 {
		return fmt.Errorf("fednet: dsvd hello with non-positive dimensions %dx%d", h.Rows, h.K)
	}
	if h.Rows > math.MaxInt/h.K {
		return fmt.Errorf("fednet: dsvd hello dimensions %dx%d overflow", h.Rows, h.K)
	}
	if len(h.Basis) != h.Rows*h.K {
		return fmt.Errorf("fednet: dsvd basis length %d does not match %dx%d", len(h.Basis), h.Rows, h.K)
	}
	for i, v := range h.Basis {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fednet: non-finite basis entry %g at index %d", v, i)
		}
	}
	return nil
}

// DSVDReply is the per-iteration downlink close: whether the client
// should dial back for another iteration, or the rejection.
type DSVDReply struct {
	// More tells the device to reconnect for the next iteration.
	More bool
	// Err carries a server-side rejection for this connection.
	Err string
}

// dsvdNonce derives the per-iteration nonce: a second splitmix of the
// round nonce and the iteration index, so every iteration of every
// seeded round carries a distinguishable value while replays of the
// same (seed, iter) are identical.
func dsvdNonce(seed int64, iter int) int64 {
	return roundNonce(roundNonce(seed) + int64(iter))
}

// DSVDServer coordinates one distributed dominant-SVD solve.
type DSVDServer struct {
	// Expect is the number of devices holding column blocks. Every
	// iteration waits for all of them: unlike the one-shot sample round,
	// dropping a straggler would silently change the operator Σ A_zA_zᵀ
	// being decomposed, so there is no partial-progress mode.
	Expect int
	// Rows is the ambient dimension n shared by all device blocks.
	Rows int
	// Opts configures the solve (rank, tolerance, cap, seed) and the
	// metrics/trace destinations, exactly as for the in-process dsvd.Run.
	Opts dsvd.Options
	// WaitTimeout, when positive, bounds each iteration's collect phase;
	// if it fires before every device reported, the solve aborts (it
	// cannot proceed correctly with fewer). Zero waits forever.
	WaitTimeout time.Duration
	// Codecs lists accepted uplink encodings, as in Server.Codecs.
	Codecs []WireCodec
	// MaxUploadBytes, when positive, caps one upload's gob size.
	MaxUploadBytes int64
}

// DSVDServeStats summarizes one completed distributed solve.
type DSVDServeStats struct {
	// Result is the converged decomposition.
	Result dsvd.Result
	// UplinkBytes / DownlinkBytes are gob-encoded wire volume across all
	// iterations, including aborted partial attempts.
	UplinkBytes, DownlinkBytes int64
	// UplinkPayloadBits counts pooled payload values × bits-per-value:
	// Iters × Expect × Rows × K × bits when every device uses one codec
	// — per device it depends only on (iterations, n, k), never on the
	// device's column count.
	UplinkPayloadBits int64
	// Retries is how many uploads idempotently replaced an earlier
	// attempt, summed over iterations.
	Retries int
	// Failures describes rejected, timed-out, or superseded connections
	// across all iterations, sorted for replay determinism.
	Failures []string
}

// Serve runs the full solve over ln: it iterates until the residual
// tolerance or the iteration cap, collecting one projection per device
// per iteration, and leaves the listener open for the caller. Every
// accepted connection receives a reply.
func (s *DSVDServer) Serve(ln net.Listener) (stats DSVDServeStats, err error) {
	if s.Expect <= 0 {
		return DSVDServeStats{}, fmt.Errorf("fednet: dsvd server expects a positive device count, got %d", s.Expect)
	}
	st, err := dsvd.NewState(s.Rows, s.Opts)
	if err != nil {
		return DSVDServeStats{}, err
	}
	reg := registry(s.Opts.Obs)
	// Instruments are registered once, before the iteration loop
	// (metrichygiene): the registry lookup takes a mutex and the
	// per-iteration path must not serialize on it.
	roundsC := reg.Counter("fedsc_dsvd_rounds_total", "Distributed SVD solves started.")
	itersC := reg.Counter("fedsc_dsvd_iterations_total", "Projection-splitting iterations across all solves.")
	convergedC := reg.Counter("fedsc_dsvd_converged_total", "Solves that reached the residual tolerance before MaxIter.")
	abortedC := reg.Counter("fedsc_dsvd_aborted_total", "Distributed solves aborted before finalization.")
	supersededC := reg.Counter("fedsc_dsvd_supersedes_total", "Projection uploads idempotently replaced by a newer attempt.")
	residualH := reg.Histogram("fedsc_dsvd_residual", "Relative subspace residual per iteration.",
		[]float64{1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1})
	secondsH := reg.Histogram("fedsc_dsvd_iteration_seconds", "Wall time of one projection-splitting iteration.",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	uplinkC := reg.Counter("fedsc_dsvd_uplink_bytes_total", "Gob-encoded projection upload bytes received.")
	downlinkC := reg.Counter("fedsc_dsvd_downlink_bytes_total", "Gob-encoded bytes sent to devices (basis hellos and replies).")
	roundsC.Inc()
	root := s.Opts.Trace.Start("dsvd.round", obs.Int("expect", s.Expect), obs.Int("k", st.K()), obs.Int("n", s.Rows))
	defer root.End()

	codecs := advertised(s.Codecs)
	col := newCollector(ln, collectPolicy{expect: s.Expect, wait: s.WaitTimeout, codecs: codecs, maxUploadBytes: s.MaxUploadBytes})
	defer col.close()
	defer func() {
		stats.UplinkBytes = col.up.Load()
		stats.DownlinkBytes = col.down.Load()
		sort.Strings(stats.Failures)
		uplinkC.Add(stats.UplinkBytes)
		downlinkC.Add(stats.DownlinkBytes)
		supersededC.Add(int64(stats.Retries))
	}()

	for !st.Done() {
		iterStart := time.Now()
		iter := st.Iters()
		nonce := dsvdNonce(s.Opts.Seed, iter)
		// Every connection of the iteration gets this same hello, so one
		// accepted while the coordinator advances can never observe a
		// half-updated iterate.
		hello := DSVDHello{Nonce: nonce, Iter: iter, Rows: s.Rows, K: st.K(), Basis: st.Basis().Data(), Codecs: codecs}
		sp := root.Start("dsvd.iter", obs.Int("iter", iter), obs.Int("expect", s.Expect))
		rd, err := col.collect(sp, hello, nonce, func(u SampleUpload) error {
			if u.Rows != hello.Rows || u.Cols != hello.K {
				return fmt.Errorf("fednet: device %d projected %dx%d, iterate is %dx%d", u.DeviceID, u.Rows, u.Cols, hello.Rows, hello.K)
			}
			return nil
		})
		if err != nil {
			err = fmt.Errorf("fednet: iteration %d: %w", iter, err)
			abortedC.Inc()
			sp.SetAttr("err", err.Error())
			sp.End()
			return stats, err
		}
		stats.Retries += rd.retries

		// Pool in ascending DeviceID order — part of the dsvd determinism
		// contract (float sums do not commute).
		parts := make([]*mat.Dense, 0, len(rd.byDevice))
		for _, id := range rd.ids() {
			c := rd.byDevice[id]
			parts = append(parts, mat.NewDenseData(c.upload.Rows, c.upload.Cols, c.values))
			stats.UplinkPayloadBits += c.upload.PayloadBits()
		}
		rho := st.Ingest(dsvd.Pool(parts))
		itersC.Inc()
		residualH.Observe(rho)
		secondsH.Observe(time.Since(iterStart).Seconds())
		more := !st.Done()
		col.reply(rd, func(c *clientState) any {
			if c.err != nil {
				return DSVDReply{Err: c.err.Error()}
			}
			return DSVDReply{More: more}
		})
		for _, f := range rd.failures() {
			stats.Failures = append(stats.Failures, fmt.Sprintf("iter %d %s", iter, f))
		}
		sp.SetAttr("residual", fmt.Sprintf("%.3e", rho))
		sp.End()
	}

	stats.Result = st.Finalize()
	if stats.Result.Converged {
		convergedC.Inc()
	}
	return stats, nil
}

// DSVDClientStats is the outcome of one device's participation in a
// distributed solve.
type DSVDClientStats struct {
	// Iters is the number of iterations the device served.
	Iters int
	// Attempts is the total number of connections dialed, retries
	// included.
	Attempts int
}

// RunDSVDClient participates in a distributed solve with fault
// tolerance: each iteration dials a fresh connection and serves one
// exchange — read the hello, project the local block against its
// basis, upload the projection, read the reply — retrying with backoff
// per the policy; the loop continues while the server's reply says
// more iterations are coming. The client is stateless across
// connections — whatever basis a hello carries is the one projected —
// so a retry that lands after the server advanced an iteration still
// uploads a valid (current) projection.
func RunDSVDClient(dial func() (net.Conn, error), deviceID int, block *mat.Dense, policy RetryPolicy, wire WireOptions, rng *rand.Rand) (DSVDClientStats, error) {
	reg := obs.Default()
	// Registered once, outside the loop (metrichygiene).
	itersC := reg.Counter("fedsc_dsvd_client_iterations_total", "Projection iterations served by dsvd clients.")
	solvesC := reg.Counter("fedsc_dsvd_client_solves_total", "Distributed solves a dsvd client served to completion.")
	m := retryMetrics{
		attempts:     reg.Counter("fedsc_dsvd_client_attempts_total", "dsvd client connection attempts, including retries."),
		retries:      reg.Counter("fedsc_dsvd_client_retries_total", "dsvd client exchange attempts beyond an iteration's first."),
		dialErrs:     reg.Counter("fedsc_dsvd_client_dial_errors_total", "dsvd client dial attempts that failed before the exchange."),
		exchangeErrs: reg.Counter("fedsc_dsvd_client_exchange_errors_total", "dsvd exchanges that died mid-wire."),
		rejections:   reg.Counter("fedsc_dsvd_client_rejections_total", "dsvd uploads the server answered with a rejection."),
		gaveups:      reg.Counter("fedsc_dsvd_client_gaveups_total", "dsvd participations abandoned after exhausting the retry budget."),
	}
	project := func(hello DSVDHello) (SampleUpload, error) {
		if err := hello.Validate(); err != nil {
			return SampleUpload{}, err
		}
		if hello.Rows != block.Rows() {
			return SampleUpload{}, fmt.Errorf("fednet: device %d holds %d-dimensional columns, iterate is %d-dimensional",
				deviceID, block.Rows(), hello.Rows)
		}
		w := dsvd.ProjectBlock(block, mat.NewDenseData(hello.Rows, hello.K, hello.Basis))
		return encodeWire(SampleUpload{DeviceID: deviceID, Nonce: hello.Nonce,
			Rows: hello.Rows, Cols: hello.K, Data: w.Data()}, wire, hello.Codecs)
	}
	// A hello basis is Rows×K with Rows the block's rows and K ≤ Rows.
	rows := int64(block.Rows())
	budget := wireBudget{hello: smallMsgBytes + gobValueBytes*rows*rows, reply: smallMsgBytes}
	stats := DSVDClientStats{}
	for {
		reply, attempts, err := retry[DSVDHello, DSVDReply](dial, deviceID, policy, rng, m, budget, project)
		stats.Attempts += attempts
		if err != nil {
			return stats, err
		}
		stats.Iters++
		itersC.Inc()
		if !reply.More {
			solvesC.Inc()
			return stats, nil
		}
	}
}
