package fednet

import (
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

// fedDevices builds Z devices with L' of L subspaces each (clean data).
func fedDevices(n, d, l, z, lPrime, perCluster int, seed int64) ([]*mat.Dense, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(n, d, l, rng)
	devices := make([]*mat.Dense, z)
	truth := make([][]int, z)
	for dev := 0; dev < z; dev++ {
		clusters := rng.Perm(l)[:lPrime]
		counts := make([]int, l)
		for _, c := range clusters {
			counts[c] = perCluster
		}
		ds := s.SampleCounts(counts, rng)
		devices[dev] = ds.X
		truth[dev] = ds.Labels
	}
	return devices, truth
}

func runRound(t *testing.T, devices []*mat.Dense, l int, viaTCP bool) ([][]int, ServeStats) {
	t.Helper()
	z := len(devices)
	srv := &Server{L: l, Expect: z, Seed: 99}
	results := make([]ClientResult, z)
	errs := make([]error, z)
	var stats ServeStats
	var serveErr error
	var wg sync.WaitGroup

	if viaTCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, serveErr = srv.Serve(ln)
		}()
		addr := ln.Addr().String()
		var cw sync.WaitGroup
		for dev := range devices {
			cw.Add(1)
			go func(dev int) {
				defer cw.Done()
				rng := rand.New(rand.NewSource(int64(1000 + dev)))
				results[dev], errs[dev] = RunClientDialerWire(dialTCP(addr), dev, devices[dev],
					core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
			}(dev)
		}
		cw.Wait()
	} else {
		serverConns := make([]net.Conn, z)
		var cw sync.WaitGroup
		for dev := range devices {
			sc, cc := net.Pipe()
			serverConns[dev] = sc
			cw.Add(1)
			go func(dev int, conn net.Conn) {
				defer cw.Done()
				rng := rand.New(rand.NewSource(int64(1000 + dev)))
				results[dev], errs[dev] = RunClientDialerWire(dialConn(conn), dev, devices[dev],
					core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
			}(dev, cc)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, serveErr = serveConns(srv, serverConns)
		}()
		cw.Wait()
	}
	wg.Wait()
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

func TestRoundOverPipes(t *testing.T) {
	devices, truth := fedDevices(20, 3, 4, 16, 2, 8, 160)
	labels, stats := runRound(t, devices, 4, false)
	acc := metrics.Accuracy(core.FlattenLabels(truth), core.FlattenLabels(labels))
	if acc < 95 {
		t.Fatalf("pipe-transport Fed-SC accuracy %.1f%%", acc)
	}
	if stats.Samples == 0 || stats.UplinkBytes == 0 {
		t.Fatalf("stats not collected: %+v", stats)
	}
}

func TestRoundOverTCP(t *testing.T) {
	devices, truth := fedDevices(20, 3, 4, 16, 2, 8, 161)
	labels, stats := runRound(t, devices, 4, true)
	acc := metrics.Accuracy(core.FlattenLabels(truth), core.FlattenLabels(labels))
	if acc < 95 {
		t.Fatalf("TCP-transport Fed-SC accuracy %.1f%%", acc)
	}
	// The uplink must carry at least the raw float payload of all samples.
	minBytes := int64(stats.Samples * 20 * 8)
	if stats.UplinkBytes < minBytes {
		t.Fatalf("uplink bytes %d below raw payload %d", stats.UplinkBytes, minBytes)
	}
}

func TestNetworkMatchesInProcessScheme(t *testing.T) {
	devices, _ := fedDevices(20, 3, 4, 12, 2, 8, 162)
	netLabels, _ := runRound(t, devices, 4, false)
	// The in-process scheme with the same per-device seeds and the same
	// server seed must produce the same partition.
	z := len(devices)
	locals := make([]core.LocalResult, z)
	for dev := range devices {
		rng := rand.New(rand.NewSource(int64(1000 + dev)))
		locals[dev] = core.LocalClusterAndSample(devices[dev], core.LocalOptions{UseEigengap: true}, rng)
	}
	res := core.Aggregate(devices, locals, 4, core.Options{}, rand.New(rand.NewSource(99)))
	a := core.FlattenLabels(netLabels)
	b := core.FlattenLabels(res.Labels)
	if metrics.Accuracy(a, b) != 100 {
		t.Fatal("network round and in-process scheme disagree on the partition")
	}
}

func TestUploadValidate(t *testing.T) {
	good := SampleUpload{Rows: 2, Cols: 3, Data: make([]float64, 6)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid upload rejected: %v", err)
	}
	bad := SampleUpload{Rows: 2, Cols: 3, Data: make([]float64, 5)}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched payload accepted")
	}
	neg := SampleUpload{Rows: -1, Cols: 3}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative dims accepted")
	}
}

func TestServerRejectsMalformedUpload(t *testing.T) {
	sc, cc := net.Pipe()
	srv := &Server{L: 2, Expect: 1, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := serveConns(srv, []net.Conn{sc})
		done <- err
	}()
	// Complete the hello handshake, then send a malformed upload.
	dec := gob.NewDecoder(cc)
	var hello RoundHello
	if err := dec.Decode(&hello); err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	go func() {
		gob.NewEncoder(cc).Encode(SampleUpload{DeviceID: 7, Nonce: hello.Nonce, Rows: 3, Cols: 2, Data: []float64{1}})
	}()
	var reply AssignmentReply
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if reply.Err == "" {
		t.Fatal("server accepted malformed upload")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "device 7") {
		t.Fatalf("server error should name the device: %v", err)
	}
}

func TestServerStragglerTimeoutProceedsWithSubset(t *testing.T) {
	// 20 devices expected, only 12 show up; the round must complete with
	// the 12 after the straggler timeout (still enough samples per
	// subspace for the central clustering).
	devices, truth := fedDevices(20, 3, 4, 12, 2, 10, 163)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	srv := &Server{L: 4, Expect: 20, Seed: 1, WaitTimeout: 300 * time.Millisecond, MinClients: 8}
	var stats ServeStats
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = srv.Serve(ln)
	}()
	results := make([]ClientResult, len(devices))
	var cw sync.WaitGroup
	for dev := range devices {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(300 + dev)))
			results[dev], _ = RunClientDialerWire(dialTCP(ln.Addr().String()), dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
		}(dev)
	}
	cw.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("straggler round failed: %v", serveErr)
	}
	if stats.Devices != 12 {
		t.Fatalf("round ran with %d devices, want 12", stats.Devices)
	}
	labels := make([][]int, len(devices))
	for dev := range results {
		labels[dev] = results[dev].Labels
	}
	acc := metrics.Accuracy(core.FlattenLabels(truth), core.FlattenLabels(labels))
	if acc < 90 {
		t.Fatalf("subset round accuracy %.1f%%", acc)
	}
}

func TestServerStragglerTimeoutBelowMinimumFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	srv := &Server{L: 2, Expect: 5, Seed: 1, WaitTimeout: 200 * time.Millisecond, MinClients: 3}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ln)
		done <- err
	}()
	// One lone client.
	rng := rand.New(rand.NewSource(1))
	devices, _ := fedDevices(10, 2, 2, 1, 2, 8, 164)
	go RunClientDialerWire(dialTCP(ln.Addr().String()), 0, devices[0], core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("round should fail below MinClients")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not give up")
	}
}

func TestServerStragglerStalledUploadDoesNotHang(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	srv := &Server{L: 2, Expect: 3, Seed: 1, WaitTimeout: 250 * time.Millisecond, MinClients: 1}
	var stats ServeStats
	var serveErr error
	doneCh := make(chan struct{})
	go func() {
		stats, serveErr = srv.Serve(ln)
		close(doneCh)
	}()
	// One healthy client, one that connects but never uploads.
	devices, _ := fedDevices(10, 2, 2, 1, 2, 8, 165)
	go RunClientDialerWire(dialTCP(ln.Addr().String()), 0, devices[0], core.LocalOptions{UseEigengap: true},
		RetryPolicy{}, WireOptions{}, rand.New(rand.NewSource(2)))
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer stalled.Close()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled upload held the round hostage")
	}
	if serveErr != nil {
		t.Fatalf("round should tolerate the stalled device: %v", serveErr)
	}
	if len(stats.Failures) != 1 {
		t.Fatalf("expected one recorded failure, got %v", stats.Failures)
	}
}

func TestServerRequiresPositiveExpect(t *testing.T) {
	srv := &Server{L: 2}
	if _, err := srv.Serve(&staticListener{}); err == nil {
		t.Fatal("expected error for Expect=0 Serve")
	}
}

// feedListener hands pre-established connections to Serve in a fixed
// order and then blocks (unlike staticListener it never returns EOF), so
// straggler-timeout paths can be exercised deterministically over pipes.
type feedListener struct {
	conns chan net.Conn
}

func (l *feedListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, io.EOF
	}
	return c, nil
}

func (l *feedListener) Close() error   { return nil }
func (l *feedListener) Addr() net.Addr { return staticAddr{} }

// TestStragglerRoundUsesActualDeviceCount is a regression test: when the
// straggler timeout fires with fewer devices than Expect, the central
// clustering must see the ACTUAL number of participating devices, not
// Expect — for TSC the neighbor count is q = max(3, ⌈Z/L⌉), so an
// inflated Z silently changes the clustering.
func TestStragglerRoundUsesActualDeviceCount(t *testing.T) {
	const l, joined, expect = 2, 4, 40
	// Seed chosen so that q = max(3, ⌈40/2⌉) and q = max(3, ⌈4/2⌉)
	// produce different TSC partitions of the pooled samples — the test
	// genuinely discriminates the two device counts.
	devices, _ := fedDevices(20, 3, l, joined, 2, 8, 160)
	srv := &Server{
		L: l, Expect: expect, Seed: 7,
		Central:     core.CentralOptions{Method: core.CentralTSC},
		WaitTimeout: 300 * time.Millisecond, MinClients: 1,
	}
	ln := &feedListener{conns: make(chan net.Conn, joined)}
	results := make([]ClientResult, joined)
	errs := make([]error, joined)
	var cw sync.WaitGroup
	for dev := 0; dev < joined; dev++ {
		sc, cc := net.Pipe()
		ln.conns <- sc // accept order = device order: deterministic pooling
		cw.Add(1)
		go func(dev int, conn net.Conn) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			results[dev], errs[dev] = RunClientDialerWire(dialConn(conn), dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
		}(dev, cc)
	}
	stats, err := srv.Serve(ln)
	cw.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if stats.Devices != joined {
		t.Fatalf("round ran with %d devices, want %d", stats.Devices, joined)
	}
	// Replicate the round offline with the true device count: the pooled
	// samples and the server seed are identical, so the assignments must
	// match exactly. With the Expect-count bug the TSC neighbor rule gets
	// q = max(3, ⌈40/2⌉) instead of max(3, ⌈4/2⌉) and the labels differ.
	matrices := make([]*mat.Dense, joined)
	for dev := 0; dev < joined; dev++ {
		rng := rand.New(rand.NewSource(int64(1000 + dev)))
		matrices[dev] = core.LocalClusterAndSample(devices[dev], core.LocalOptions{UseEigengap: true}, rng).Samples
	}
	theta := mat.HStack(matrices...)
	want := core.CentralCluster(theta, joined, l, srv.Central, rand.New(rand.NewSource(7))).Labels
	var got []int
	for dev := 0; dev < joined; dev++ {
		if errs[dev] != nil {
			t.Fatalf("client %d: %v", dev, errs[dev])
		}
		got = append(got, results[dev].SampleAssignments...)
	}
	if len(got) != len(want) {
		t.Fatalf("pooled %d assignments, offline %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: server assigned %d, offline (actual-count) clustering says %d\nserver: %v\noffline: %v",
				i, got[i], want[i], got, want)
		}
	}
}

// noDeadlineConn simulates a transport that rejects deadlines.
type noDeadlineConn struct {
	net.Conn
}

func (c noDeadlineConn) SetDeadline(time.Time) error {
	return errors.New("deadlines unsupported")
}

// TestStragglerRecordsDeadlineErrors: a transport whose SetDeadline
// fails cannot be bounded by the straggler grace period; the failure
// must surface in ServeStats.Failures instead of being dropped.
func TestStragglerRecordsDeadlineErrors(t *testing.T) {
	devices, _ := fedDevices(10, 2, 2, 2, 2, 8, 167)
	srv := &Server{L: 2, Expect: 3, Seed: 1, WaitTimeout: 250 * time.Millisecond, MinClients: 1}
	ln := &feedListener{conns: make(chan net.Conn, 2)}
	var cw sync.WaitGroup
	for dev := 0; dev < 2; dev++ {
		sc, cc := net.Pipe()
		if dev == 1 {
			sc = noDeadlineConn{Conn: sc}
		}
		ln.conns <- sc
		cw.Add(1)
		go func(dev int, conn net.Conn) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(500 + dev)))
			RunClientDialerWire(dialConn(conn), dev, devices[dev], core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
		}(dev, cc)
	}
	stats, err := srv.Serve(ln)
	cw.Wait()
	if err != nil {
		t.Fatalf("round should survive one deadline-rejecting device: %v", err)
	}
	if len(stats.Failures) != 1 || !strings.Contains(stats.Failures[0], "deadline") {
		t.Fatalf("deadline rejection not recorded: %v", stats.Failures)
	}
}

// TestServeExportsModel: with Export set, a completed round must hand
// back a valid serving artifact whose bases assign the uploaded samples
// to their own clusters.
func TestServeExportsModel(t *testing.T) {
	devices, _ := fedDevices(20, 3, 4, 12, 2, 8, 168)
	srv := &Server{L: 4, Expect: 12, Seed: 99, Export: true}
	serverConns := make([]net.Conn, len(devices))
	results := make([]ClientResult, len(devices))
	var cw sync.WaitGroup
	for dev := range devices {
		sc, cc := net.Pipe()
		serverConns[dev] = sc
		cw.Add(1)
		go func(dev int, conn net.Conn) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			results[dev], _ = RunClientDialerWire(dialConn(conn), dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
		}(dev, cc)
	}
	stats, err := serveConns(srv, serverConns)
	cw.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if stats.Model == nil {
		t.Fatal("Export set but no model returned")
	}
	if err := stats.Model.Validate(); err != nil {
		t.Fatalf("exported model invalid: %v", err)
	}
	if stats.Model.Ambient != 20 || stats.Model.L != 4 {
		t.Fatalf("model shape %dx%d", stats.Model.Ambient, stats.Model.L)
	}
	if stats.Model.Method != "ssc" {
		t.Fatalf("model method %q", stats.Model.Method)
	}
	// Each device's points, scored by minimum residual against the
	// exported bases, must reproduce the labels the round returned.
	bases := stats.Model.Bases()
	for dev, x := range devices {
		norms := mat.ColNormsSq(x)
		for j := 0; j < x.Cols(); j++ {
			best, bestRes := -1, 0.0
			for g, u := range bases {
				r := mat.ResidualsSq(u, x, norms)
				if best < 0 || r[j] < bestRes {
					best, bestRes = g, r[j]
				}
			}
			if best != results[dev].Labels[j] {
				t.Fatalf("device %d point %d: residual rule %d, round %d", dev, j, best, results[dev].Labels[j])
			}
		}
	}
}
