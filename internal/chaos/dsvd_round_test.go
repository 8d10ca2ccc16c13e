package chaos_test

// Chaos coverage for the multi-round distributed-SVD wire: a solve
// whose first iteration suffers a reset mid-projection-upload (retry
// path) while another device duplicates every upload on a second
// connection (supersede path) must converge to exactly the result of a
// fault-free in-process solve, and the whole run — fault trace, stats,
// basis bits — must replay bit-identically under a fixed seed. This is
// the dsvd determinism contract end to end: retries and duplicates
// recompute the same projection from the same hello, dedup keeps the
// pool single-entry, and pooling order is fixed by device id.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/dsvd"
	"fedsc/internal/fednet"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
)

// dsvdChaosBlocks plants a rank-d subspace in n dimensions and deals
// its columns into z device blocks of unequal size.
func dsvdChaosBlocks(seed int64) []*mat.Dense {
	const n, d = 20, 3
	sizes := []int{12, 16, 9, 11}
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, c := range sizes {
		total += c
	}
	basis := mat.RandomOrthonormal(n, d, rng)
	coef := mat.RandomGaussian(d, total, rng)
	x := mat.Mul(basis, coef)
	noise := mat.RandomGaussian(n, total, rng)
	xd, nd := x.Data(), noise.Data()
	for i := range xd {
		xd[i] += 0.01 * nd[i]
	}
	blocks := make([]*mat.Dense, len(sizes))
	off := 0
	col := make([]float64, n)
	for z, c := range sizes {
		b := mat.NewDense(n, c)
		for j := 0; j < c; j++ {
			x.Col(off+j, col)
			b.SetCol(j, col)
		}
		blocks[z] = b
		off += c
	}
	return blocks
}

// dsvdMixedSchedule scripts the same two adversaries as the one-shot
// round tests, against the iterated wire: device 0's very first
// connection is reset 200 bytes into its projection upload (the retry
// must recompute the identical projection for the same iteration), and
// device 2 duplicates every iteration's upload (each iteration's dedup
// must keep exactly one entry).
func dsvdMixedSchedule(seed int64) *chaos.Schedule {
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

// dsvdOutcome is everything a chaos dsvd solve is compared on.
type dsvdOutcome struct {
	Stats    fednet.DSVDServeStats
	ServeErr string
	Client   []fednet.DSVDClientStats
	Errs     []string
	Trace    string
}

func runDSVDChaosSolve(t *testing.T, seed int64, opts dsvd.Options) dsvdOutcome {
	t.Helper()
	blocks := dsvdChaosBlocks(17)
	z := len(blocks)
	policy := fednet.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond,
		Timeout: 250 * time.Millisecond, ReplyTimeout: 3 * time.Second}
	sched := dsvdMixedSchedule(seed)
	pn := chaos.NewPipeNet()
	defer pn.Close()

	srv := &fednet.DSVDServer{Expect: z, Rows: blocks[0].Rows(), Opts: opts, WaitTimeout: 5 * time.Second}
	var out dsvdOutcome
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.Stats, serveErr = srv.Serve(pn.Listener())
	}()
	out.Client = make([]fednet.DSVDClientStats, z)
	out.Errs = make([]string, z)
	var cw sync.WaitGroup
	for dev := 0; dev < z; dev++ {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			dial := sched.Dialer(dev, pn.Dial)
			rng := rand.New(rand.NewSource(int64(1000 + dev)))
			var err error
			out.Client[dev], err = fednet.RunDSVDClient(dial, dev, blocks[dev], policy, fednet.WireOptions{}, rng)
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

func TestDSVDSolveSurvivesResetAndDuplicate(t *testing.T) {
	opts := dsvd.Options{K: 3, Seed: 29, Tol: 1e-9, MaxIter: 100, Obs: obs.NewRegistry()}
	first := runDSVDChaosSolve(t, 13, opts)

	if first.ServeErr != "" {
		t.Fatalf("server: %s", first.ServeErr)
	}
	for dev, e := range first.Errs {
		if e != "" {
			t.Fatalf("device %d failed in a recoverable schedule: %s", dev, e)
		}
	}
	iters := first.Stats.Result.Iters
	if iters < 2 {
		t.Fatalf("solve took %d iterations; the schedule needs several to exercise the wire", iters)
	}
	// Device 0's reset killed exactly its first connection: one extra
	// attempt, all in iteration 0.
	if want := iters + 1; first.Client[0].Attempts != want {
		t.Fatalf("reset device dialed %d times for %d iterations, want %d", first.Client[0].Attempts, iters, want)
	}
	// Device 2 dialed twice per iteration, and each duplicate superseded
	// its attempt-1 twin — the dead reset attempt never reached dedup.
	if want := 2 * iters; first.Client[2].Attempts != want {
		t.Fatalf("duplicating device dialed %d times for %d iterations, want %d", first.Client[2].Attempts, iters, want)
	}
	if first.Stats.Retries != iters {
		t.Fatalf("dedup replacements %d, want one per iteration = %d", first.Stats.Retries, iters)
	}
	// Pooled payload: every device exactly once per iteration at n×k
	// float64 values, duplicates and dead attempts excluded.
	n := 20
	if want := int64(iters) * 4 * int64(n) * 3 * 64; first.Stats.UplinkPayloadBits != want {
		t.Fatalf("payload accounting %d bits, want %d", first.Stats.UplinkPayloadBits, want)
	}
	if first.Trace == "" {
		t.Fatal("no faults traced")
	}

	// Faults must not bend the math: the solve equals a fault-free
	// in-process run bit for bit.
	local, err := dsvd.Run(dsvdChaosBlocks(17), dsvd.Options{K: 3, Seed: 29, Tol: 1e-9, MaxIter: 100, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Stats.Result.U.Data(), local.U.Data()) ||
		!reflect.DeepEqual(first.Stats.Result.Sigma, local.Sigma) ||
		first.Stats.Result.Iters != local.Iters {
		t.Fatal("chaos solve result differs from the fault-free in-process solve")
	}

	// And the whole faulted run replays bit-identically.
	second := runDSVDChaosSolve(t, 13, opts)
	if first.Trace != second.Trace {
		t.Fatalf("fault trace not bit-identical under a fixed seed:\n--- first\n%s--- second\n%s",
			first.Trace, second.Trace)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("dsvd chaos outcome diverged under a fixed seed:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
