package fednet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
)

// ioTimeout bounds each network operation of the client protocol when
// the RetryPolicy sets no budget: the hello read, the upload write, and
// the reply read each get it. The reply wait covers the server-side
// central clustering, so the default is generous.
const ioTimeout = 2 * time.Minute

// ClientResult is the outcome of one device's participation in a round.
type ClientResult struct {
	// Labels is the global cluster of each local point.
	Labels []int
	// R is the number of local clusters the device found.
	R int
	// SampleAssignments are the server labels of the uploaded samples.
	SampleAssignments []int
	// Attempts is how many connection attempts the exchange took (1 for
	// a fault-free link).
	Attempts int
}

// rejectionError marks a server-side rejection: the server answered,
// so retrying the identical upload cannot succeed.
type rejectionError struct{ msg string }

func (e rejectionError) Error() string { return e.msg }

// RetryPolicy governs the client's fault tolerance: a failed exchange
// is retried on a fresh connection with capped exponential backoff and
// seeded jitter. The zero value performs a single attempt — the
// pre-retry behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of connection attempts
	// (including the first); values below 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it. Zero defaults to 50ms when retries are on.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero defaults to 2s.
	MaxDelay time.Duration
	// Jitter widens each backoff multiplicatively by a seeded uniform
	// draw in [1-Jitter, 1+Jitter], desynchronizing a fleet of devices
	// that all lost the same server. Values outside [0, 1] are clamped.
	Jitter float64
	// Timeout bounds each point-to-point operation of an attempt (the
	// hello read and the upload write); zero falls back to two minutes,
	// and a negative value means no deadline.
	Timeout time.Duration
	// ReplyTimeout bounds the final read separately: the reply arrives
	// only once the server has collected every expected device, so this
	// wait spans the whole straggler window plus the central clustering
	// — far longer than a point-to-point exchange. A Timeout-sized
	// reply budget would make every punctual device abandon its live
	// connection the moment one slow peer exhausts that same Timeout.
	// Zero falls back to Timeout, then to two minutes.
	ReplyTimeout time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the sleep before attempt (1-based count of failures
// so far): BaseDelay·2^(attempt-1), capped at MaxDelay, scaled by the
// seeded jitter draw. The draw is consumed even when the delay is
// zero, so the rng stream does not depend on fault timing.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	jitter := p.Jitter
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	scale := 1.0
	if jitter > 0 {
		scale = 1 + jitter*(2*rng.Float64()-1)
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(float64(d) * scale)
}

// ioDeadline is the absolute deadline of one point-to-point operation.
func (p RetryPolicy) ioDeadline() time.Time { return deadline(p.Timeout) }

// replyDeadline is the deadline of the round-spanning reply wait.
func (p RetryPolicy) replyDeadline() time.Time {
	if p.ReplyTimeout != 0 {
		return deadline(p.ReplyTimeout)
	}
	return p.ioDeadline()
}

// deadline turns a budget into an absolute deadline: zero means
// ioTimeout, and a negative budget the zero time, which explicitly
// clears any previous deadline.
func deadline(t time.Duration) time.Time {
	if t == 0 {
		t = ioTimeout
	}
	if t < 0 {
		return time.Time{}
	}
	return time.Now().Add(t)
}

// Every message a device decodes from the server is read through a
// byte budget fixed by what the device already knows, so a hostile or
// broken server cannot make it allocate without bound. smallMsgBytes
// covers a message with no payload (a RoundHello, a DSVDReply) together
// with gob's one-time type descriptors; payload budgets add at most
// gobValueBytes per int or float64 value on top of it.
const (
	smallMsgBytes = 64 << 10
	gobValueBytes = 9
)

// wireBudget is the byte budget of the hello and of the reply of one
// exchange.
type wireBudget struct{ hello, reply int64 }

// rejection returns the server's rejection of the upload, if any.
func (r AssignmentReply) rejection() string { return r.Err }

// rejection returns the server's rejection of the upload, if any.
func (r DSVDReply) rejection() string { return r.Err }

// exchange runs one attempt of either protocol on conn and closes it:
// read the hello H, send the upload derived from it (stamped with the
// attempt number), read the reply R. The hello and the reply are each
// read within their budget. A reply carrying a server rejection comes
// back as a rejectionError.
func exchange[H any, R interface{ rejection() string }](conn net.Conn, deviceID, attempt int, policy RetryPolicy, budget wireBudget, upload func(H) (SampleUpload, error)) (R, error) {
	var hello H
	var reply R
	// Each exchange is one-shot: a Close error after a complete
	// exchange changes nothing the client can act on.
	defer func() { _ = conn.Close() }()
	if err := conn.SetReadDeadline(policy.ioDeadline()); err != nil {
		return reply, fmt.Errorf("fednet: device %d set read deadline: %w", deviceID, err)
	}
	limited := &io.LimitedReader{R: conn, N: budget.hello}
	dec := gob.NewDecoder(limited)
	if err := dec.Decode(&hello); err != nil {
		if limited.N <= 0 {
			return reply, fmt.Errorf("fednet: device %d hello exceeds the %d-byte limit", deviceID, budget.hello)
		}
		return reply, fmt.Errorf("fednet: device %d hello: %w", deviceID, err)
	}
	up, err := upload(hello)
	if err != nil {
		return reply, err
	}
	up.Attempt = attempt
	if err := conn.SetWriteDeadline(policy.ioDeadline()); err != nil {
		return reply, fmt.Errorf("fednet: device %d set write deadline: %w", deviceID, err)
	}
	if err := gob.NewEncoder(conn).Encode(up); err != nil {
		return reply, fmt.Errorf("fednet: device %d upload: %w", deviceID, err)
	}
	if err := conn.SetReadDeadline(policy.replyDeadline()); err != nil {
		return reply, fmt.Errorf("fednet: device %d set read deadline: %w", deviceID, err)
	}
	limited.N = budget.reply
	if err := dec.Decode(&reply); err != nil {
		if limited.N <= 0 {
			return reply, fmt.Errorf("fednet: device %d reply exceeds the %d-byte limit", deviceID, budget.reply)
		}
		return reply, fmt.Errorf("fednet: device %d reply: %w", deviceID, err)
	}
	if msg := reply.rejection(); msg != "" {
		return reply, rejectionError{msg: fmt.Sprintf("fednet: device %d rejected by server: %s", deviceID, msg)}
	}
	return reply, nil
}

// retryMetrics are the counters of one protocol's retry loop. They are
// registered once, outside the loop: the registry lookup takes a mutex,
// and the hot path of a retry storm must not serialize on it per
// attempt (metrichygiene).
type retryMetrics struct {
	attempts, retries, dialErrs, exchangeErrs, rejections, gaveups *obs.Counter
}

// retry runs one exchange with fault tolerance: each attempt dials a
// fresh connection and runs the exchange on it, backing off between
// failures per the policy. It returns the reply and how many attempts
// it made.
func retry[H any, R interface{ rejection() string }](dial func() (net.Conn, error), deviceID int, policy RetryPolicy, rng *rand.Rand, m retryMetrics, budget wireBudget, upload func(H) (SampleUpload, error)) (R, int, error) {
	var reply R
	var lastErr error
	attempt := 1
	for ; attempt <= policy.attempts(); attempt++ {
		if attempt > 1 {
			m.retries.Inc()
			time.Sleep(policy.Backoff(attempt-1, rng))
		}
		m.attempts.Inc()
		conn, err := dial()
		if err != nil {
			m.dialErrs.Inc()
			lastErr = fmt.Errorf("fednet: device %d dial: %w", deviceID, err)
			continue
		}
		if reply, lastErr = exchange[H, R](conn, deviceID, attempt, policy, budget, upload); lastErr == nil {
			return reply, attempt, nil
		}
		var rejected rejectionError
		if errors.As(lastErr, &rejected) {
			// The server saw the upload and said no; the identical
			// payload cannot fare better on a retry.
			m.rejections.Inc()
			break
		}
		m.exchangeErrs.Inc()
	}
	m.gaveups.Inc()
	return reply, min(attempt, policy.attempts()), fmt.Errorf("fednet: device %d gave up after %d attempts: %w", deviceID, policy.attempts(), lastErr)
}

// RunClientDialerWire executes the full client side of the protocol
// with fault tolerance: Phase 1 runs locally on x exactly once (so every
// attempt re-uploads the identical samples and the server's dedup
// replacement is idempotent), then each attempt dials a fresh
// connection and performs the wire exchange, backing off between
// failures per the policy. Phase 3 runs locally on the first successful
// reply. With WireOptions.Quant set, every attempt re-packs the
// identical samples with the stateless quantizer whenever the server's
// hello advertises CodecQuant, so retried and duplicated uploads stay
// byte-identical while the uplink carries Bits (not 64) bits per value;
// the zero WireOptions uploads float64 passthrough.
func RunClientDialerWire(dial func() (net.Conn, error), deviceID int, x *mat.Dense, local core.LocalOptions, policy RetryPolicy, wire WireOptions, rng *rand.Rand) (ClientResult, error) {
	lr := core.LocalClusterAndSample(x, local, rng)
	rows, cols := lr.Samples.Dims()
	reg := obs.Default()
	roundsC := reg.Counter("fedsc_fednet_client_rounds_total", "Client round participations that completed Phase 3.")
	m := retryMetrics{
		attempts:     reg.Counter("fedsc_fednet_client_attempts_total", "Client connection attempts, including retries."),
		retries:      reg.Counter("fedsc_fednet_client_retries_total", "Client exchange attempts beyond the first."),
		dialErrs:     reg.Counter("fedsc_fednet_client_dial_errors_total", "Client dial attempts that failed before the exchange."),
		exchangeErrs: reg.Counter("fedsc_fednet_client_exchange_errors_total", "Exchanges that died mid-wire (reset, timeout, decode failure)."),
		rejections:   reg.Counter("fedsc_fednet_client_rejections_total", "Uploads the server answered with a rejection."),
		gaveups:      reg.Counter("fedsc_fednet_client_gaveups_total", "Client participations abandoned after exhausting the retry budget."),
	}
	// The reply carries one int per uploaded sample.
	budget := wireBudget{hello: smallMsgBytes, reply: smallMsgBytes + gobValueBytes*int64(cols)}
	reply, attempts, err := retry[RoundHello, AssignmentReply](dial, deviceID, policy, rng, m, budget, func(hello RoundHello) (SampleUpload, error) {
		return encodeWire(SampleUpload{DeviceID: deviceID, Nonce: hello.Nonce,
			Rows: rows, Cols: cols, Data: lr.Samples.Data()}, wire, hello.Codecs)
	})
	if err != nil {
		return ClientResult{}, err
	}
	if len(reply.Assignments) != cols {
		return ClientResult{}, fmt.Errorf("fednet: device %d got %d assignments for %d samples",
			deviceID, len(reply.Assignments), cols)
	}
	roundsC.Inc()
	labels, clusterLabels := lr.Relabel(reply.Assignments, max(local.SamplesPerCluster, 1), x.Cols())
	return ClientResult{Labels: labels, R: lr.R(), SampleAssignments: clusterLabels, Attempts: attempts}, nil
}
