package fednet

// Fault-tolerance regression tests: server-side dedup of reconnecting
// devices, client retry, downlink accounting, and the hostile-upload
// guards. The chaos transport provides the deterministic faults.

import (
	"encoding/gob"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
)

// tolerantServer is the straggler-tolerant configuration the retry
// tests run under: the round closes only once all z devices are
// pooled (or the generous timeout fires).
func tolerantServer(l, z int, seed int64) *Server {
	return &Server{L: l, Expect: z, Seed: seed, WaitTimeout: 5 * time.Second, MinClients: z}
}

// runCleanRound is the single-attempt baseline every fault run is
// compared against: same device data, same per-device seeds, same
// server seed, no faults.
func runCleanRound(t *testing.T, srv *Server, devices []*mat.Dense) ([][]int, ServeStats) {
	t.Helper()
	pn := chaos.NewPipeNet()
	defer pn.Close()
	var stats ServeStats
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = srv.Serve(pn.Listener())
	}()
	results := make([]ClientResult, len(devices))
	errs := make([]error, len(devices))
	var cw sync.WaitGroup
	for dev := range devices {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			results[dev], errs[dev] = RunClientDialerWire(pn.Dial, dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
		}(dev)
	}
	cw.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("clean round: %v", serveErr)
	}
	labels := make([][]int, len(devices))
	for dev, err := range errs {
		if err != nil {
			t.Fatalf("clean round client %d: %v", dev, err)
		}
		labels[dev] = results[dev].Labels
	}
	return labels, stats
}

// TestRetryReplacesPartialUpload is the dedup regression of the
// double-pooling bug: device 0 completes an upload, loses the
// connection before the reply, and retries with an identical payload.
// The re-upload must REPLACE the first attempt — Samples and the
// labels must match the clean single-attempt run exactly, and the
// dedup table must report exactly one replacement.
func TestRetryReplacesPartialUpload(t *testing.T) {
	const l, z = 4, 6
	devices, _ := fedDevices(20, 3, l, z, 2, 8, 170)

	baseLabels, baseStats := runCleanRound(t, tolerantServer(l, z, 99), devices)

	pn := chaos.NewPipeNet()
	defer pn.Close()
	srv := tolerantServer(l, z, 99)
	var stats ServeStats
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = srv.Serve(pn.Listener())
	}()

	// Device 0's two attempts are uploaded by hand over the raw wire
	// protocol, so both are fully consumed by the server before any
	// other device even dials — the round cannot complete early, and
	// whichever arrival the collect loop processes first, the Attempt
	// numbers decide the supersede deterministically.
	lr := core.LocalClusterAndSample(devices[0], core.LocalOptions{UseEigengap: true},
		rand.New(rand.NewSource(1000)))
	rows, cols := lr.Samples.Dims()
	upload := func(attempt int) net.Conn {
		t.Helper()
		conn, err := pn.Dial()
		if err != nil {
			t.Fatalf("attempt %d dial: %v", attempt, err)
		}
		var hello RoundHello
		if err := gob.NewDecoder(conn).Decode(&hello); err != nil {
			t.Fatalf("attempt %d hello: %v", attempt, err)
		}
		if err := gob.NewEncoder(conn).Encode(SampleUpload{
			DeviceID: 0, Nonce: hello.Nonce, Attempt: attempt, Rows: rows, Cols: cols, Data: lr.Samples.Data(),
		}); err != nil {
			t.Fatalf("attempt %d upload: %v", attempt, err)
		}
		return conn
	}
	// Attempt 1: pooled by the server, but the device never reads the
	// reply — the pooled-yet-unacknowledged state that forces a retry.
	connA := upload(1)
	// Attempt 2: the identical payload re-uploaded; this connection
	// stays live for the reply.
	connB := upload(2)

	results := make([]ClientResult, z)
	errs := make([]error, z)
	var cw sync.WaitGroup
	for dev := 1; dev < z; dev++ {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			results[dev], errs[dev] = RunClientDialerWire(pn.Dial, dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
		}(dev)
	}

	// The live retry connection gets the assignments once the round
	// completes; the superseded one gets the rejection.
	var replyB AssignmentReply
	if err := gob.NewDecoder(connB).Decode(&replyB); err != nil {
		t.Fatalf("retry reply: %v", err)
	}
	if replyB.Err != "" {
		t.Fatalf("live retry rejected: %s", replyB.Err)
	}
	var replyA AssignmentReply
	if err := gob.NewDecoder(connA).Decode(&replyA); err != nil {
		t.Fatalf("superseded reply: %v", err)
	}
	if !strings.Contains(replyA.Err, "superseded") {
		t.Fatalf("first attempt's reply should carry the supersede rejection, got %q", replyA.Err)
	}
	_ = connA.Close() // the exchange is over; nothing acts on the error
	_ = connB.Close() // the exchange is over; nothing acts on the error
	labels0, _ := lr.Relabel(replyB.Assignments, 1, devices[0].Cols())
	cw.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	if stats.Retries != 1 {
		t.Fatalf("dedup table recorded %d replacements, want 1", stats.Retries)
	}
	if stats.Samples != baseStats.Samples {
		t.Fatalf("re-upload was double-pooled: %d samples, single-attempt run had %d",
			stats.Samples, baseStats.Samples)
	}
	if stats.Devices != z {
		t.Fatalf("round pooled %d devices, want %d", stats.Devices, z)
	}
	labels := make([][]int, z)
	labels[0] = labels0
	for dev := 1; dev < z; dev++ {
		if errs[dev] != nil {
			t.Fatalf("client %d: %v", dev, errs[dev])
		}
		labels[dev] = results[dev].Labels
	}
	got := core.FlattenLabels(labels)
	want := core.FlattenLabels(baseLabels)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("label %d diverged after retry: got %d, single-attempt run says %d", i, got[i], want[i])
		}
	}
	if len(stats.Failures) != 1 || !strings.Contains(stats.Failures[0], "superseded") {
		t.Fatalf("replaced attempt not reported as superseded: %v", stats.Failures)
	}
}

// TestRetryAfterMidUploadReset drives the retry machinery end to end:
// device 0's first upload is cut at byte 512 by the chaos transport,
// the client backs off and retries on a fresh connection, and the
// round must match the fault-free run exactly.
func TestRetryAfterMidUploadReset(t *testing.T) {
	const l, z = 4, 6
	devices, _ := fedDevices(20, 3, l, z, 2, 8, 171)
	baseLabels, baseStats := runCleanRound(t, tolerantServer(l, z, 99), devices)

	pn := chaos.NewPipeNet()
	defer pn.Close()
	sched := &chaos.Schedule{
		Seed: 5,
		// The gob-encoded upload is ~475 bytes here, so the cut at byte
		// 256 lands mid-payload.
		Devices: map[int]chaos.Script{0: {ResetWriteAt: 256}},
		Trace:   chaos.NewTrace(),
	}
	srv := tolerantServer(l, z, 99)
	var stats ServeStats
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = srv.Serve(pn.Listener())
	}()
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Timeout: 2 * time.Second}
	results := make([]ClientResult, z)
	errs := make([]error, z)
	var cw sync.WaitGroup
	for dev := 0; dev < z; dev++ {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			results[dev], errs[dev] = RunClientDialerWire(sched.Dialer(dev, pn.Dial), dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, policy, WireOptions{}, rng)
		}(dev)
	}
	cw.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	if results[0].Attempts != 2 {
		t.Fatalf("device 0 took %d attempts, want 2 (reset then clean)", results[0].Attempts)
	}
	if stats.Samples != baseStats.Samples {
		t.Fatalf("faulted round pooled %d samples, fault-free %d", stats.Samples, baseStats.Samples)
	}
	if stats.UplinkBytes <= baseStats.UplinkBytes {
		t.Fatalf("partial attempt not accounted: uplink %d not above fault-free %d",
			stats.UplinkBytes, baseStats.UplinkBytes)
	}
	labels := make([][]int, z)
	for dev := range results {
		if errs[dev] != nil {
			t.Fatalf("client %d: %v", dev, errs[dev])
		}
		labels[dev] = results[dev].Labels
	}
	if acc := metrics.Accuracy(core.FlattenLabels(baseLabels), core.FlattenLabels(labels)); acc != 100 {
		t.Fatalf("faulted round diverged from fault-free run: overlap %.1f%%", acc)
	}
	if len(sched.Trace.Events(0)) == 0 {
		t.Fatal("chaos trace recorded no fault for the reset device")
	}
}

// TestDownlinkBytesCounted: the communication accounting must cover
// both directions — hellos and replies are real traffic.
func TestDownlinkBytesCounted(t *testing.T) {
	devices, _ := fedDevices(20, 3, 4, 8, 2, 8, 172)
	labels, stats := runRound(t, devices, 4, false)
	if stats.DownlinkBytes <= 0 {
		t.Fatalf("downlink bytes not counted: %+v", stats)
	}
	// Every device received a hello and an assignment slice; a few
	// bytes per pooled sample is a safe floor.
	if stats.DownlinkBytes < int64(stats.Samples) {
		t.Fatalf("downlink %d bytes below one byte per sample (%d)", stats.DownlinkBytes, stats.Samples)
	}
	// The uplink carries 8-byte floats per entry, the downlink small
	// ints; uplink must dominate.
	if stats.DownlinkBytes >= stats.UplinkBytes {
		t.Fatalf("downlink %d not below uplink %d", stats.DownlinkBytes, stats.UplinkBytes)
	}
	if len(labels) != len(devices) {
		t.Fatalf("labels for %d devices, want %d", len(labels), len(devices))
	}
}

// TestStaleNonceRejected: an upload carrying another round's nonce (a
// replayed or late connect) must be rejected, never pooled.
func TestStaleNonceRejected(t *testing.T) {
	sc, cc := net.Pipe()
	srv := &Server{L: 2, Expect: 1, Seed: 3}
	done := make(chan error, 1)
	go func() {
		_, err := serveConns(srv, []net.Conn{sc})
		done <- err
	}()
	dec := gob.NewDecoder(cc)
	var hello RoundHello
	if err := dec.Decode(&hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	go func() {
		gob.NewEncoder(cc).Encode(SampleUpload{
			DeviceID: 3, Nonce: hello.Nonce + 1, Rows: 2, Cols: 1, Data: []float64{1, 2},
		})
	}()
	var reply AssignmentReply
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("reply: %v", err)
	}
	if !strings.Contains(reply.Err, "stale round nonce") {
		t.Fatalf("stale upload not rejected: %q", reply.Err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "device 3") {
		t.Fatalf("server error should name the device: %v", err)
	}
}

// TestMaxUploadBytesEnforced: an oversized payload must be cut off at
// the limit instead of reaching the decoder's allocations.
func TestMaxUploadBytesEnforced(t *testing.T) {
	sc, cc := net.Pipe()
	srv := &Server{L: 2, Expect: 1, Seed: 4, MaxUploadBytes: 1024}
	done := make(chan error, 1)
	go func() {
		_, err := serveConns(srv, []net.Conn{sc})
		done <- err
	}()
	dec := gob.NewDecoder(cc)
	var hello RoundHello
	if err := dec.Decode(&hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	// The pipe is synchronous: the sender below blocks mid-upload when
	// the server stops reading at the limit, so the rejection reply must
	// be drained concurrently for the server's write to complete.
	go func() {
		var reply AssignmentReply
		_ = dec.Decode(&reply) // the reply may race the conn teardown
		_ = cc.Close()         // unblocks the stuck upload write
	}()
	go func() {
		// ~8KB payload against a 1KB limit; the Encode error (server
		// stops reading, then the drain goroutine closes the conn) is
		// the expected outcome for the sender.
		_ = gob.NewEncoder(cc).Encode(SampleUpload{
			DeviceID: 9, Nonce: hello.Nonce, Rows: 32, Cols: 32, Data: make([]float64, 1024),
		}) // the Encode error is the point of the test, not a failure
	}()
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "byte limit") {
		t.Fatalf("oversized upload not limited: %v", err)
	}
}

// TestMalformedGobRejected: a client speaking garbage instead of gob
// must produce a per-device rejection, not a wedged round.
func TestMalformedGobRejected(t *testing.T) {
	sc, cc := net.Pipe()
	srv := &Server{L: 2, Expect: 1, Seed: 5}
	done := make(chan error, 1)
	go func() {
		_, err := serveConns(srv, []net.Conn{sc})
		done <- err
	}()
	dec := gob.NewDecoder(cc)
	var hello RoundHello
	if err := dec.Decode(&hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	go func() {
		if _, err := cc.Write([]byte("\x07this is not a gob stream")); err != nil {
			return
		}
		_ = cc.Close()
	}()
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "decode upload") {
		t.Fatalf("garbage stream not rejected: %v", err)
	}
}

// TestValidateHostile covers the overflow and non-finite guards.
func TestValidateHostile(t *testing.T) {
	overflow := SampleUpload{Rows: math.MaxInt / 2, Cols: 3}
	if err := overflow.Validate(); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("Rows*Cols overflow accepted: %v", err)
	}
	nan := SampleUpload{Rows: 1, Cols: 2, Data: []float64{1, math.NaN()}}
	if err := nan.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN entry accepted: %v", err)
	}
	inf := SampleUpload{Rows: 1, Cols: 2, Data: []float64{math.Inf(-1), 1}}
	if err := inf.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf entry accepted: %v", err)
	}
	good := SampleUpload{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatalf("finite upload rejected: %v", err)
	}
}

// TestRetryPolicyBackoff pins the backoff law: deterministic under a
// seeded rng, exponential, capped.
func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: 0.5}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 8; attempt++ {
		da := p.Backoff(attempt, a)
		db := p.Backoff(attempt, b)
		if da != db {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, da, db)
		}
		if max := time.Duration(float64(80*time.Millisecond) * 1.5); da > max {
			t.Fatalf("attempt %d: backoff %v above jittered cap %v", attempt, da, max)
		}
		if da <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, da)
		}
	}
	if (RetryPolicy{}).attempts() != 1 {
		t.Fatal("zero policy must mean a single attempt")
	}
}

// TestStalledConnectionIsUnidentified: a connection whose upload never
// decoded carries no device id, so its failure must not be blamed on
// device 0 (the zero DeviceID) — here the one healthy device really is
// device 0, and the stalled connection must be reported as
// unidentified.
func TestStalledConnectionIsUnidentified(t *testing.T) {
	devices, _ := fedDevices(10, 2, 2, 1, 2, 8, 165)
	srv := &Server{L: 2, Expect: 2, Seed: 1, WaitTimeout: 300 * time.Millisecond, MinClients: 1}
	ln := &feedListener{conns: make(chan net.Conn, 2)}
	defer close(ln.conns) // releases the acceptor once the round is over
	healthy, healthyClient := net.Pipe()
	stalled, stalledClient := net.Pipe()
	defer func() { _ = stalledClient.Close() }() // it never reads or writes
	ln.conns <- healthy
	ln.conns <- stalled
	clientErr := make(chan error, 1)
	go func() {
		_, err := RunClientDialerWire(dialConn(healthyClient), 0, devices[0], core.LocalOptions{UseEigengap: true},
			RetryPolicy{}, WireOptions{}, rand.New(rand.NewSource(2)))
		clientErr <- err
	}()
	stats, err := srv.Serve(ln)
	if err != nil {
		t.Fatalf("round should tolerate the stalled connection: %v", err)
	}
	if err := <-clientErr; err != nil {
		t.Fatalf("healthy device: %v", err)
	}
	if len(stats.Failures) != 1 || !strings.HasPrefix(stats.Failures[0], "unidentified connection: ") {
		t.Fatalf("stalled connection not reported as unidentified: %v", stats.Failures)
	}
}
