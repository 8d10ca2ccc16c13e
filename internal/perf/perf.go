// Package perf defines the tracked kernel benchmarks once, shared by the
// `go test -bench` micro-benchmarks at the repository root and the
// machine-readable harness behind `fedsc-bench -json` (`make bench-json`),
// so the numbers recorded in BENCH_<label>.json across PRs and the numbers
// developers see locally always come from the same code and inputs.
package perf

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/dsvd"
	"fedsc/internal/fednet"
	"fedsc/internal/fleet"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/store"
	"fedsc/internal/synth"
)

// LocalClusterAndSample measures one device's Phase 1 (the dominant
// per-device cost: SSC + eigengap + truncated SVD + sampling).
func LocalClusterAndSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := synth.RandomSubspaces(20, 5, 4, rng)
	ds := s.SampleCounts([]int{20, 20, 0, 0}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LocalClusterAndSample(ds.X, core.LocalOptions{UseEigengap: true},
			rand.New(rand.NewSource(int64(i))))
	}
}

// FedSCRound measures a complete one-shot round end to end. Metrics and
// span tracing are deliberately enabled — the tracked number budgets the
// fully instrumented path, so observability overhead creeping past noise
// fails the bench-regression gate like any other slowdown.
func FedSCRound(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := synth.RandomSubspaces(20, 5, 8, rng)
	devices := make([]*mat.Dense, 40)
	for dev := range devices {
		clusters := rng.Perm(8)[:2]
		counts := make([]int, 8)
		for k := 0; k < 30; k++ {
			counts[clusters[k%2]]++
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(devices, 8, core.Options{
			Local: core.LocalOptions{UseEigengap: true},
			Obs:   obs.NewRegistry(),
			Trace: obs.NewTracer(nil),
		}, rand.New(rand.NewSource(int64(i))))
	}
}

// centralHeavyDevices builds the round used by FedSCRoundCentralHeavy
// and FedSCRoundSharded: many devices with little local data, so the
// pooled count (256 samples) makes Phase 2 — whose spectral
// segmentation is cubic in the pooled count — the round's dominant
// cost. Ambient dimension 64 leaves room for the sketch to pay.
func centralHeavyDevices() []*mat.Dense {
	rng := rand.New(rand.NewSource(5))
	s := synth.RandomSubspaces(64, 3, 8, rng)
	devices := make([]*mat.Dense, 128)
	for dev := range devices {
		clusters := rng.Perm(8)[:2]
		counts := make([]int, 8)
		for _, c := range clusters {
			counts[c] = 6
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	return devices
}

// benchCentralHeavy runs the central-heavy round with the given Phase 2
// configuration; FedSCRoundCentralHeavy and FedSCRoundSharded differ
// only in it, so their delta is exactly the sharded/sketched win.
func benchCentralHeavy(b *testing.B, central core.CentralOptions) {
	devices := centralHeavyDevices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(devices, 8, core.Options{
			Local:   core.LocalOptions{UseEigengap: true},
			Central: central,
			Obs:     obs.NewRegistry(),
			Trace:   obs.NewTracer(nil),
		}, rand.New(rand.NewSource(int64(i))))
	}
}

// FedSCRoundCentralHeavy measures the exact single-pass Phase 2 on a
// round whose pooled count dominates the cost.
func FedSCRoundCentralHeavy(b *testing.B) {
	benchCentralHeavy(b, core.CentralOptions{})
}

// FedSCRoundSharded measures the same round with Phase 2 dealt into 4
// shards and the pooled matrix sketched from 64 to 32 rows — the
// configuration the shard/sketch pipeline exists for.
func FedSCRoundSharded(b *testing.B) {
	benchCentralHeavy(b, core.CentralOptions{Shards: 4, SketchSize: 32})
}

// SymEigen measures the dense symmetric eigendecomposition used by
// spectral clustering and the eigengap estimate.
func SymEigen(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := mat.RandomGaussian(200, 200, rng)
	a := mat.MulTA(g, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.SymEigen(a)
	}
}

// SymEigenPartial measures the k-pair partial eigensolver on the same
// 200×200 Gram matrix as SymEigen with k=8 — the spectral-embedding
// regime (k cluster eigenvectors of an n-point graph) where the
// bisection + inverse-iteration path must beat the full decomposition.
func SymEigenPartial(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := mat.RandomGaussian(200, 200, rng)
	a := mat.MulTA(g, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.SymEigenPartial(a, 8)
	}
}

// DistributedSVD measures one in-process projection-splitting solve
// (internal/dsvd): 4 devices × 60 columns in R^64, rank 4 — the
// per-iteration device projections, residual, re-orthonormalization,
// and the final Ritz rotation.
func DistributedSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	basis := mat.RandomOrthonormal(64, 4, rng)
	blocks := make([]*mat.Dense, 4)
	for z := range blocks {
		x := mat.Mul(basis, mat.RandomGaussian(4, 60, rng))
		noise := mat.RandomGaussian(64, 60, rng)
		xd, nd := x.Data(), noise.Data()
		for i := range xd {
			xd[i] += 0.01 * nd[i]
		}
		blocks[z] = x
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsvd.Run(blocks, dsvd.Options{K: 4, Seed: int64(i), Obs: obs.NewRegistry()}); err != nil {
			b.Fatal(err)
		}
	}
}

// TruncatedSVD measures per-cluster basis recovery (the randomized
// range-finder path: 128x60 input, k=5).
func TruncatedSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	basis := mat.RandomOrthonormal(128, 5, rng)
	coef := mat.RandomGaussian(5, 60, rng)
	x := mat.Mul(basis, coef)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.TruncatedSVD(x, 5)
	}
}

// MulTA measures the transposed product aᵀ*b that Gram-matrix formation
// and the randomized SVD's projection step are built on.
func MulTA(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := mat.RandomGaussian(200, 200, rng)
	h := mat.RandomGaussian(200, 200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulTA(g, h)
	}
}

// FedSCRoundUnderLatency measures a complete networked round — four
// devices dialing through the chaos transport with 2ms±1ms scripted
// latency per link — so regressions in the retry/dedup/reply path show
// up as wall-clock, not just as kernel time.
func FedSCRoundUnderLatency(b *testing.B) {
	const z, l = 4, 4
	rng := rand.New(rand.NewSource(3))
	s := synth.RandomSubspaces(40, 3, l, rng)
	devices := make([]*mat.Dense, z)
	for dev := range devices {
		clusters := rng.Perm(l)[:2]
		counts := make([]int, l)
		for _, c := range clusters {
			counts[c] = 8
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	policy := fednet.RetryPolicy{
		MaxAttempts: 2, BaseDelay: 10 * time.Millisecond,
		Timeout: 2 * time.Second, ReplyTimeout: 10 * time.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := &chaos.Schedule{
			Seed:    int64(i),
			Default: chaos.Script{Latency: 2 * time.Millisecond, Jitter: time.Millisecond},
		}
		pn := chaos.NewPipeNet()
		srv := &fednet.Server{L: l, Expect: z, Seed: int64(i), WaitTimeout: 5 * time.Second}
		done := make(chan error, 1)
		go func() {
			_, err := srv.Serve(pn.Listener())
			done <- err
		}()
		var wg sync.WaitGroup
		for dev := 0; dev < z; dev++ {
			wg.Add(1)
			go func(dev int) {
				defer wg.Done()
				_, err := fednet.RunClientDialerWire(sched.Dialer(dev, pn.Dial), dev, devices[dev],
					core.LocalOptions{UseEigengap: true}, policy, fednet.WireOptions{},
					rand.New(rand.NewSource(int64(100*i+dev))))
				if err != nil {
					b.Errorf("iteration %d device %d: %v", i, dev, err)
				}
			}(dev)
		}
		wg.Wait()
		if err := <-done; err != nil {
			b.Fatalf("iteration %d server: %v", i, err)
		}
		pn.Close()
	}
}

// FedSCIncrementalRound measures the continuous-federation steady
// state (internal/fleet): one Join wave of two late devices whose
// clusters all absorb into the served model — per-device Phase 1, the
// serve-engine scoring of every local cluster, and the principal-angle
// similarity test, with no delta sub-solve and no store write. This is
// the recurring cost of a long-running fleet between splices.
func FedSCIncrementalRound(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	s := synth.RandomSubspaces(30, 3, 4, rng)
	device := func() *mat.Dense {
		clusters := rng.Perm(4)[:2]
		counts := make([]int, 4)
		for _, c := range clusters {
			counts[c] = 12
		}
		return s.SampleCounts(counts, rng).X
	}
	founding := make([]*mat.Dense, 8)
	for dev := range founding {
		founding[dev] = device()
	}
	late := []*mat.Dense{device(), device()}

	dir, err := os.MkdirTemp("", "fedsc-bench-fleet-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := fleet.New(fleet.Config{
		L:     4,
		Local: core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
		Seed:  8,
		Store: st,
		Obs:   obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := ctl.Initial(founding); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctl.Join(late)
		if err != nil {
			b.Fatal(err)
		}
		if res.Changed {
			b.Fatalf("iteration %d spliced %d clusters; the steady-state bench must absorb everything", i, res.Spliced)
		}
	}
}

// Named pairs a stable benchmark name with its body. Names match the
// root-level `Benchmark<Name>` functions.
type Named struct {
	Name string
	F    func(*testing.B)
}

// Suite lists the tracked benchmarks in output order.
func Suite() []Named {
	return []Named{
		{"TruncatedSVD", TruncatedSVD},
		{"SymEigen", SymEigen},
		{"SymEigenPartial", SymEigenPartial},
		{"DistributedSVD", DistributedSVD},
		{"MulTA", MulTA},
		{"LocalClusterAndSample", LocalClusterAndSample},
		{"FedSCRound", FedSCRound},
		{"FedSCRoundCentralHeavy", FedSCRoundCentralHeavy},
		{"FedSCRoundSharded", FedSCRoundSharded},
		{"FedSCRoundUnderLatency", FedSCRoundUnderLatency},
		{"FedSCIncrementalRound", FedSCIncrementalRound},
	}
}

// Result is one benchmark's measurement in the JSON report.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is the schema of a BENCH_<label>.json file.
type Report struct {
	Label      string   `json:"label"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CreatedAt  string   `json:"created_at"`
	Results    []Result `json:"results"`
}

// RunSuite executes every tracked benchmark via testing.Benchmark and
// returns the measurements in suite order.
func RunSuite() []Result {
	out := make([]Result, 0, len(Suite()))
	for _, nb := range Suite() {
		r := testing.Benchmark(nb.F)
		out = append(out, Result{
			Name:        nb.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		})
	}
	return out
}

// WriteJSON writes the report for label to path (conventionally
// BENCH_<label>.json in the repository root).
func WriteJSON(path, label string, results []Result) error {
	rep := Report{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Results:    results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("perf: write report: %w", err)
	}
	return nil
}
