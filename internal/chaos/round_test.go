package chaos_test

// Round-level chaos tests: a full Fed-SC round under scripted faults
// must complete via retry + straggler tolerance, never pool a device
// twice, and — over the synchronous PipeNet transport — replay
// bit-identically under a fixed seed: same fault trace, same
// ServeStats, same labels.

import (
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/fednet"
	"fedsc/internal/mat"
	"fedsc/internal/synth"
)

// chaosDevices generates per-device data large enough that the named
// schedules' byte-offset faults (reset at 512) land mid-upload.
func chaosDevices(z int, seed int64) []*mat.Dense {
	const n, d, l, lPrime, perCluster = 40, 3, 4, 2, 8
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(n, d, l, rng)
	devices := make([]*mat.Dense, z)
	for dev := 0; dev < z; dev++ {
		clusters := rng.Perm(l)[:lPrime]
		counts := make([]int, l)
		for _, c := range clusters {
			counts[c] = perCluster
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	return devices
}

// roundOutcome is everything a chaos round is compared on.
type roundOutcome struct {
	Stats    fednet.ServeStats
	ServeErr string
	Labels   [][]int
	Attempts []int
	Errs     []string
	Trace    string
}

// runChaosRound drives one full round: every device dials through the
// schedule, the server runs straggler-tolerant, and the outcome is
// collected in comparable form. dial/listener choose the transport.
func runChaosRound(t *testing.T, sched *chaos.Schedule, devices []*mat.Dense,
	minClients int, policy fednet.RetryPolicy, dial func() (net.Conn, error), ln net.Listener) roundOutcome {
	t.Helper()
	z := len(devices)
	srv := &fednet.Server{L: 4, Expect: z, Seed: 99, WaitTimeout: 400 * time.Millisecond, MinClients: minClients}
	var out roundOutcome
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.Stats, serveErr = srv.Serve(ln)
	}()
	out.Labels = make([][]int, z)
	out.Attempts = make([]int, z)
	out.Errs = make([]string, z)
	var cw sync.WaitGroup
	for dev := 0; dev < z; dev++ {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			res, err := fednet.RunClientDialerWire(sched.Dialer(dev, dial), dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, policy, fednet.WireOptions{}, rng)
			out.Labels[dev] = res.Labels
			out.Attempts[dev] = res.Attempts
			if err != nil {
				out.Errs[dev] = err.Error()
			}
		}(dev)
	}
	cw.Wait()
	wg.Wait()
	if serveErr != nil {
		out.ServeErr = serveErr.Error()
	}
	out.Trace = sched.Trace.String()
	return out
}

// TestMixedScheduleReplaysBitIdentically is the acceptance scenario:
// latency with jitter on every link, one device reset mid-upload at a
// fixed byte offset, one device black-holed forever. The round must
// complete via retry + straggler tolerance with no duplicate samples,
// and two runs under the same seed must agree on every observable —
// fault trace, ServeStats, labels.
func TestMixedScheduleReplaysBitIdentically(t *testing.T) {
	const z = 5
	devices := chaosDevices(z, 42)
	policy := fednet.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, Timeout: 250 * time.Millisecond, ReplyTimeout: 3 * time.Second}
	run := func() roundOutcome {
		sched, ok := chaos.Named("mixed", z, 7)
		if !ok {
			t.Fatal("mixed schedule missing")
		}
		pn := chaos.NewPipeNet()
		defer pn.Close()
		return runChaosRound(t, sched, devices, z-1, policy, pn.Dial, pn.Listener())
	}
	first := run()

	// The round completed without the black-holed device.
	if first.ServeErr != "" {
		t.Fatalf("server: %s", first.ServeErr)
	}
	if first.Stats.Devices != z-1 {
		t.Fatalf("pooled %d devices, want %d (all but the black-holed one)", first.Stats.Devices, z-1)
	}
	if first.Errs[1] == "" {
		t.Fatal("black-holed device 1 should have given up")
	}
	for dev := 0; dev < z; dev++ {
		if dev != 1 && first.Errs[dev] != "" {
			t.Fatalf("device %d failed in a recoverable schedule: %s", dev, first.Errs[dev])
		}
	}
	if first.Attempts[0] != 2 {
		t.Fatalf("reset device took %d attempts, want 2", first.Attempts[0])
	}
	if first.Stats.Retries != 0 {
		t.Fatalf("mid-upload reset must not reach the dedup table, got %d replacements", first.Stats.Retries)
	}
	// No duplicate samples: the pooled count equals the sum over the
	// pooled devices' uploads, each counted once.
	perDevice := first.Stats.Samples / (z - 1)
	if perDevice*(z-1) != first.Stats.Samples {
		t.Fatalf("pooled sample count %d not an even per-device multiple", first.Stats.Samples)
	}
	if first.Trace == "" {
		t.Fatal("no faults traced under the mixed schedule")
	}

	second := run()
	if first.Trace != second.Trace {
		t.Fatalf("fault trace not bit-identical under a fixed seed:\n--- first\n%s--- second\n%s", first.Trace, second.Trace)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("round outcome diverged under a fixed seed:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// raceSchedule exercises every recoverable fault class at once: a
// mid-upload reset, a mid-upload stall, a refused dial, and chunked
// slightly-latent links everywhere.
func raceSchedule(seed int64) *chaos.Schedule {
	return &chaos.Schedule{
		Seed:    seed,
		Default: chaos.Script{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, ChunkBytes: 256},
		Devices: map[int]chaos.Script{
			0: {ResetWriteAt: 300},
			1: {StallWriteAfter: 300},
			2: {Refuse: true},
		},
		Trace: chaos.NewTrace(),
	}
}

// TestChaosRoundRace runs resets, stalls, and retries concurrently
// over both transports; its value is under -race.
func TestChaosRoundRace(t *testing.T) {
	const z = 4
	devices := chaosDevices(z, 43)
	policy := fednet.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, Timeout: 250 * time.Millisecond, ReplyTimeout: 3 * time.Second}

	check := func(t *testing.T, out roundOutcome) {
		t.Helper()
		if out.ServeErr != "" {
			t.Fatalf("server: %s", out.ServeErr)
		}
		if out.Stats.Devices != z {
			t.Fatalf("pooled %d devices, want %d — every fault here is recoverable", out.Stats.Devices, z)
		}
		for dev := 0; dev < z; dev++ {
			if out.Errs[dev] != "" {
				t.Fatalf("device %d failed in a recoverable schedule: %s", dev, out.Errs[dev])
			}
		}
		for _, dev := range []int{0, 1, 2} {
			if out.Attempts[dev] != 2 {
				t.Fatalf("faulted device %d took %d attempts, want 2", dev, out.Attempts[dev])
			}
		}
	}

	t.Run("pipe", func(t *testing.T) {
		pn := chaos.NewPipeNet()
		defer pn.Close()
		check(t, runChaosRound(t, raceSchedule(3), devices, z, policy, pn.Dial, pn.Listener()))
	})
	t.Run("tcp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer func() { _ = ln.Close() }() // Serve already closed it; double close is harmless
		addr := ln.Addr().String()
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		check(t, runChaosRound(t, raceSchedule(4), devices, z, policy, dial, ln))
	})
}
