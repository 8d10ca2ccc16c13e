package chaos_test

// Quantized-wire chaos coverage: a round whose uploads travel under
// the negotiated CodecQuant encoding must survive a reset mid-upload
// and a duplicate late connect exactly like the float64 wire — dedup
// to the highest attempt, no double pooling — and replay
// bit-identically under a fixed seed, Section IV-E payload accounting
// included. Packing is stateless, so every retry carries the same
// bytes; this test pins that end to end.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/fednet"
	"fedsc/internal/privacy"
)

// quantMixedSchedule scripts the two adversaries of the dedup table at
// once: device 0 is reset mid-upload on its first attempt (the retry
// path — the dead attempt never reaches the pool), device 2 replays
// its upload on a second connection (the supersede path — attempt 2
// must win). The reset offset sits inside the quantized upload, which
// is several times smaller than its float64 counterpart.
func quantMixedSchedule(seed int64) *chaos.Schedule {
	return &chaos.Schedule{
		Seed:    seed,
		Default: chaos.Script{Latency: 2 * time.Millisecond, Jitter: time.Millisecond},
		Devices: map[int]chaos.Script{
			0: {Latency: 2 * time.Millisecond, Jitter: time.Millisecond, ResetWriteAt: 200},
			2: {Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Duplicate: true},
		},
		Trace: chaos.NewTrace(),
	}
}

func runQuantChaosRound(t *testing.T, seed int64) roundOutcome {
	t.Helper()
	const z = 4
	devices := chaosDevices(z, 44)
	policy := fednet.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond,
		Timeout: 250 * time.Millisecond, ReplyTimeout: 3 * time.Second}
	wire := fednet.WireOptions{Quant: &privacy.Quantizer{Bits: 8}}
	sched := quantMixedSchedule(seed)
	pn := chaos.NewPipeNet()
	defer pn.Close()

	srv := &fednet.Server{L: 4, Expect: z, Seed: 99, WaitTimeout: 400 * time.Millisecond, MinClients: z}
	var out roundOutcome
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.Stats, serveErr = srv.Serve(pn.Listener())
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
			res, err := fednet.RunClientDialerWire(sched.Dialer(dev, pn.Dial), dev, devices[dev],
				core.LocalOptions{UseEigengap: true}, policy, wire, rng)
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

func TestQuantizedRoundSurvivesResetAndDuplicate(t *testing.T) {
	const z = 4
	first := runQuantChaosRound(t, 11)

	if first.ServeErr != "" {
		t.Fatalf("server: %s", first.ServeErr)
	}
	for dev := 0; dev < z; dev++ {
		if first.Errs[dev] != "" {
			t.Fatalf("device %d failed in a recoverable schedule: %s", dev, first.Errs[dev])
		}
	}
	if first.Stats.Devices != z {
		t.Fatalf("pooled %d devices, want %d", first.Stats.Devices, z)
	}
	if first.Attempts[0] != 2 {
		t.Fatalf("reset device took %d attempts, want 2 (the reset must land mid-upload)", first.Attempts[0])
	}
	if first.Attempts[2] != 2 {
		t.Fatalf("duplicating device reports %d attempts, want 2", first.Attempts[2])
	}
	// Exactly one dedup replacement: the duplicate's attempt 2
	// superseded attempt 1. The reset attempt died mid-wire and never
	// reached the table.
	if first.Stats.Retries != 1 {
		t.Fatalf("dedup replacements %d, want exactly 1 (the duplicate)", first.Stats.Retries)
	}
	// The pool holds every device exactly once at the quantized rate:
	// ambient 40 x 8 bits per value, no sample counted twice.
	if want := int64(first.Stats.Samples) * 40 * 8; first.Stats.UplinkPayloadBits != want {
		t.Fatalf("payload accounting %d bits for %d pooled samples, want %d",
			first.Stats.UplinkPayloadBits, first.Stats.Samples, want)
	}
	if first.Trace == "" {
		t.Fatal("no faults traced")
	}

	second := runQuantChaosRound(t, 11)
	if first.Trace != second.Trace {
		t.Fatalf("fault trace not bit-identical under a fixed seed:\n--- first\n%s--- second\n%s",
			first.Trace, second.Trace)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("quantized round outcome diverged under a fixed seed:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
