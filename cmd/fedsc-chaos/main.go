// Command fedsc-chaos runs full Fed-SC rounds on synthetic data under
// named deterministic fault schedules and reports the accuracy and
// communication-cost degradation against the fault-free baseline.
//
// Usage:
//
//	fedsc-chaos [-schedule NAME|all] [-z N] [-n N] [-l N] [-per N] [-seed N]
//	            [-tcp] [-trace] [-noverify]
//
// Every schedule is driven by a seeded chaos.Schedule, so a run over
// the default in-process pipe transport replays bit-identically: by
// default each schedule executes twice and the run fails if the fault
// trace, the server stats, or the labels differ between the two
// executions. -tcp switches to a real TCP loopback listener (kernel
// buffering makes byte counts timing-dependent there, so the replay
// verification is skipped). -trace prints the injected-fault trace.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/fednet"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

type config struct {
	z, n, l, lPrime, perCluster int
	seed                        int64
	tcp                         bool
	wait                        time.Duration
}

// outcome is one round's observables, comparable across replays.
type outcome struct {
	Stats    fednet.ServeStats
	ServeErr string
	Labels   [][]int
	Attempts []int
	Errs     []string
	Trace    string
}

func main() {
	schedule := flag.String("schedule", "mixed", "named fault schedule, or \"all\"")
	z := flag.Int("z", 8, "number of devices")
	n := flag.Int("n", 40, "ambient dimension of the synthetic subspaces")
	l := flag.Int("l", 4, "number of global clusters")
	per := flag.Int("per", 8, "points per local cluster")
	seed := flag.Int64("seed", 1, "master seed for data, round, and fault schedule")
	tcp := flag.Bool("tcp", false, "run over a TCP loopback listener instead of in-process pipes")
	trace := flag.Bool("trace", false, "print the injected-fault trace of each schedule")
	noverify := flag.Bool("noverify", false, "skip the bit-identical replay verification")
	wait := flag.Duration("wait", 500*time.Millisecond, "server straggler timeout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fedsc-chaos [flags]\nschedules: %v\nflags:\n", chaos.Names())
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := config{z: *z, n: *n, l: *l, lPrime: 2, perCluster: *per, seed: *seed, tcp: *tcp, wait: *wait}
	names := []string{*schedule}
	if *schedule == "all" {
		names = chaos.Names()
	}
	for _, name := range names {
		if _, ok := chaos.Named(name, cfg.z, cfg.seed); !ok {
			fmt.Fprintf(os.Stderr, "fedsc-chaos: unknown schedule %q (want one of %v)\n", name, chaos.Names())
			os.Exit(2)
		}
	}

	devices := synthDevices(cfg)
	base := runSchedule("none", cfg, devices)
	if base.ServeErr != "" {
		fmt.Fprintf(os.Stderr, "fedsc-chaos: fault-free baseline failed: %s\n", base.ServeErr)
		os.Exit(1)
	}

	fmt.Printf("%-12s %8s %9s %8s %9s %10s %10s %9s\n",
		"schedule", "devices", "attempts", "retries", "failures", "uplink", "overhead", "accuracy")
	failedRun := false
	for _, name := range names {
		out := runSchedule(name, cfg, devices)
		report(name, cfg, base, out)
		if out.ServeErr != "" {
			failedRun = true
			fmt.Fprintf(os.Stderr, "fedsc-chaos: schedule %q: server: %s\n", name, out.ServeErr)
		}
		if *trace && out.Trace != "" {
			fmt.Printf("--- trace %s\n%s", name, out.Trace)
		}
		if !*noverify && !cfg.tcp {
			replay := runSchedule(name, cfg, devices)
			if !reflect.DeepEqual(out, replay) {
				failedRun = true
				fmt.Fprintf(os.Stderr, "fedsc-chaos: schedule %q did not replay bit-identically\n--- first trace\n%s--- replay trace\n%s",
					name, out.Trace, replay.Trace)
			}
		}
	}
	if !*noverify && !cfg.tcp {
		fmt.Printf("replay: every schedule reproduced bit-identically under seed %d\n", cfg.seed)
	}
	if failedRun {
		os.Exit(1)
	}
}

// synthDevices builds the per-device data: z devices, each holding
// points from lPrime of the l global subspaces.
func synthDevices(cfg config) []*mat.Dense {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := synth.RandomSubspaces(cfg.n, 3, cfg.l, rng)
	devices := make([]*mat.Dense, cfg.z)
	for dev := range devices {
		clusters := rng.Perm(cfg.l)[:cfg.lPrime]
		counts := make([]int, cfg.l)
		for _, c := range clusters {
			counts[c] = cfg.perCluster
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	return devices
}

// runSchedule executes one full round under the named schedule.
func runSchedule(name string, cfg config, devices []*mat.Dense) outcome {
	sched, _ := chaos.Named(name, cfg.z, cfg.seed)
	var dial func() (net.Conn, error)
	var ln net.Listener
	if cfg.tcp {
		tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedsc-chaos: listen: %v\n", err)
			os.Exit(1)
		}
		addr := tcpLn.Addr().String()
		dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		ln = tcpLn
	} else {
		pn := chaos.NewPipeNet()
		defer pn.Close()
		dial = pn.Dial
		ln = pn.Listener()
	}

	// One device may be scripted to never recover (the blackhole and
	// mixed schedules), so the server tolerates a single straggler.
	srv := &fednet.Server{
		L: cfg.l, Expect: cfg.z, Seed: cfg.seed,
		WaitTimeout: cfg.wait, MinClients: cfg.z - 1,
	}
	policy := fednet.RetryPolicy{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond,
		Timeout: cfg.wait / 2, ReplyTimeout: 10 * time.Second,
	}

	out := outcome{
		Labels:   make([][]int, cfg.z),
		Attempts: make([]int, cfg.z),
		Errs:     make([]string, cfg.z),
	}
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.Stats, serveErr = srv.Serve(ln)
	}()
	var cw sync.WaitGroup
	for dev := 0; dev < cfg.z; dev++ {
		cw.Add(1)
		go func(dev int) {
			defer cw.Done()
			rng := rand.New(rand.NewSource(mixSeed(cfg.seed, dev)))
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

// mixSeed derives the per-device client seed from the master seed.
func mixSeed(seed int64, dev int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(dev+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return int64(z ^ (z >> 27))
}

// report prints one schedule's degradation row against the baseline.
func report(name string, cfg config, base, out outcome) {
	attempts, failures := 0, 0
	for dev := 0; dev < cfg.z; dev++ {
		attempts += out.Attempts[dev]
		if out.Errs[dev] != "" {
			failures++
		}
	}
	// Accuracy is measured over the devices that completed in both
	// runs: their labels must agree with the fault-free round (up to
	// the global label permutation metrics.Accuracy already allows).
	var want, got []int
	for dev := 0; dev < cfg.z; dev++ {
		if out.Errs[dev] == "" && base.Errs[dev] == "" {
			want = append(want, base.Labels[dev]...)
			got = append(got, out.Labels[dev]...)
		}
	}
	acc := metrics.Accuracy(want, got)
	overhead := 0.0
	if base.Stats.UplinkBytes > 0 {
		overhead = 100 * float64(out.Stats.UplinkBytes-base.Stats.UplinkBytes) / float64(base.Stats.UplinkBytes)
	}
	fmt.Printf("%-12s %5d/%-2d %9d %8d %9d %9dB %+9.1f%% %8.1f%%\n",
		name, out.Stats.Devices, cfg.z, attempts, out.Stats.Retries, failures,
		out.Stats.UplinkBytes, overhead, acc)
	if strings.Contains(name, "blackhole") || name == "mixed" {
		// These schedules lose a device by design; note which.
		lost := []int{}
		for dev := 0; dev < cfg.z; dev++ {
			if out.Errs[dev] != "" {
				lost = append(lost, dev)
			}
		}
		sort.Ints(lost)
		fmt.Printf("%-12s   lost devices %v (scripted, tolerated as stragglers)\n", "", lost)
	}
}
