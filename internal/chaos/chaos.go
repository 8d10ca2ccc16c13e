// Package chaos is a deterministic, seeded fault-injection transport
// for exercising the one-shot Fed-SC round under realistic network
// failure: Conn and Listener wrap any net.Conn / net.Listener and
// inject latency with jitter, bandwidth caps, chunked partial writes,
// connection resets at exact byte offsets, mid-upload stalls and
// black-holes, accept-time refusals, and duplicate uploads, all
// scripted per device and per connection attempt by a Schedule.
//
// Every random decision (jitter draws) flows through a *rand.Rand
// derived from (Schedule.Seed, device, attempt) with a splitmix64
// mixer, never from wall-clock or goroutine interleaving, so a chaos
// run replays bit-identically under a fixed seed: the fault Trace, the
// set of bytes each endpoint observes over net.Pipe, and therefore the
// round's ServeStats and labels are all reproducible — the property
// the round-orchestration regression tests and cmd/fedsc-chaos build
// on.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrRefused is returned by a scripted dial whose connection attempt
// is refused before any byte flows (the deterministic analogue of
// ECONNREFUSED).
var ErrRefused = errors.New("chaos: connection refused by schedule")

// ErrDuplicate fails the reply read of a connection whose upload a
// Duplicate script withheld.
var ErrDuplicate = errors.New("chaos: reply withheld for a duplicate upload")

// ErrReset is returned by a Conn whose write direction was cut at the
// scripted byte offset (the deterministic analogue of ECONNRESET).
var ErrReset = errors.New("chaos: connection reset by schedule")

// Script is the fault program of one device. Shaping faults (latency,
// jitter, bandwidth, chunking) apply to every connection attempt;
// terminal faults (refuse, reset, stall, black-hole) apply only to
// the first FailAttempts attempts, so a retrying client eventually
// gets a clean link — or never does, when FailAttempts is negative.
type Script struct {
	// Latency is added once per transfer direction (before the first
	// read and the first write of the connection), modelling one-way
	// propagation delay.
	Latency time.Duration
	// Jitter widens Latency by a seeded uniform draw in [-Jitter, +Jitter].
	Jitter time.Duration
	// BandwidthBps caps the write throughput: each chunk sleeps
	// len(chunk)·1e9/BandwidthBps nanoseconds after flushing. Zero
	// means unlimited.
	BandwidthBps int
	// ChunkBytes fragments every write into chunks of at most this
	// many bytes, each delivered separately (TCP-like fragmentation);
	// zero writes whole buffers.
	ChunkBytes int

	// Refuse fails the dial itself with ErrRefused.
	Refuse bool
	// ResetWriteAt, when positive, resets the connection the moment
	// the cumulative written byte count reaches exactly this offset:
	// bytes before the offset are delivered, the rest never are.
	ResetWriteAt int64
	// ResetReadAt mirrors ResetWriteAt for the read direction: exactly
	// this many downlink bytes are observed, then the connection resets.
	// Placed past the round hello it models the classic
	// pooled-but-unacknowledged fault — the server accepted the upload
	// while the client never saw the reply and must retry.
	ResetReadAt int64
	// StallWriteAfter, when positive, black-holes the write direction
	// once the cumulative written byte count reaches this offset: the
	// write blocks until the deadline expires or the conn is closed.
	StallWriteAfter int64
	// Blackhole stalls both directions from the first byte: the
	// connection opens but nothing ever flows.
	Blackhole bool
	// FailAttempts is how many initial attempts suffer the terminal
	// faults: 0 defaults to 1 when any terminal fault is set, and a
	// negative value applies them to every attempt (a device that
	// never recovers).
	FailAttempts int

	// Duplicate scripts a duplicate late connect, the adversarial
	// counterpart of a retry, on every other connection of the device:
	// it withholds the client's upload and fails the reply read with
	// ErrDuplicate, so the client retries on the next connection. Once
	// that one read its hello (its first write), the withheld upload goes
	// out too: both land in the same round, and the server's dedup must
	// keep the higher attempt. Conn.Close tells how the pair winds down.
	Duplicate bool
}

// terminal reports whether any terminal fault is configured.
func (s Script) terminal() bool {
	return s.Refuse || s.Blackhole || s.ResetWriteAt > 0 || s.ResetReadAt > 0 || s.StallWriteAfter > 0
}

// failsAttempt reports whether attempt (0-based) suffers the terminal
// faults.
func (s Script) failsAttempt(attempt int) bool {
	if !s.terminal() {
		return false
	}
	n := s.FailAttempts
	if n < 0 {
		return true
	}
	if n == 0 {
		n = 1
	}
	return attempt < n
}

// Schedule assigns fault scripts to devices and derives the seeded
// randomness of every connection deterministically.
type Schedule struct {
	// Seed roots every per-connection rng; two runs with equal Seed
	// and scripts produce identical fault decisions.
	Seed int64
	// Default applies to devices absent from Devices.
	Default Script
	// Devices maps a device id to its script.
	Devices map[int]Script
	// Trace, when non-nil, records every injected fault for replay
	// verification.
	Trace *Trace

	mu       sync.Mutex
	attempts map[int]int
	// held maps a Duplicate device to the pair its next connection
	// releases.
	held map[int]*dupPair
}

// Script returns the fault program of device.
func (s *Schedule) Script(device int) Script {
	if sc, ok := s.Devices[device]; ok {
		return sc
	}
	return s.Default
}

// Dialer wraps dial so that each call counts as the device's next
// connection attempt and returns a Conn applying the device's script
// for that attempt (or ErrRefused when the attempt is scripted away).
func (s *Schedule) Dialer(device int, dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		s.mu.Lock()
		if s.attempts == nil {
			s.attempts = make(map[int]int)
		}
		attempt := s.attempts[device]
		s.attempts[device] = attempt + 1
		s.mu.Unlock()
		return s.Wrap(device, attempt, dial)
	}
}

// Wrap dials and wraps one scripted connection for (device, attempt).
func (s *Schedule) Wrap(device, attempt int, dial func() (net.Conn, error)) (net.Conn, error) {
	sc := s.Script(device)
	failing := sc.failsAttempt(attempt)
	if sc.Refuse && failing {
		s.Trace.Record(device, "attempt %d: refused", attempt)
		return nil, ErrRefused
	}
	inner, err := dial()
	if err != nil {
		return nil, err
	}
	c := newConn(inner, sc, failing, device, attempt,
		rand.New(rand.NewSource(mix64(s.Seed, int64(device)<<20+int64(attempt)))), s.Trace)
	if sc.Duplicate {
		s.mu.Lock()
		if c.frees = s.held[device]; c.frees != nil {
			delete(s.held, device)
		} else {
			c.holds = &dupPair{release: make(chan struct{}), drained: make(chan struct{})}
			if s.held == nil {
				s.held = make(map[int]*dupPair)
			}
			s.held[device] = c.holds
		}
		s.mu.Unlock()
	}
	return c, nil
}

// ResetAttempts forgets the per-device attempt counters and any
// unreleased duplicate, so the same Schedule value can drive a second,
// identical run.
func (s *Schedule) ResetAttempts() {
	s.mu.Lock()
	s.attempts = nil
	s.held = nil
	s.mu.Unlock()
}

// mix64 is splitmix64 over the pair (seed, salt): a cheap, well-mixed
// derivation of independent per-connection streams from one root seed.
func mix64(seed, salt int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(salt)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
