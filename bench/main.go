// Command bench is the layered Fed-SC benchmark. It drives one of five
// workloads through the public APIs of core, fednet, serve, fleet and
// store, generates every input from one seed, checks the outputs, and
// prints either the end-to-end metrics (an untraced run) or the
// per-layer breakdown (a traced run, -trace 1). README.md describes the
// workloads, the metrics and the layer each metric belongs to.
//
//	go run . -workload round-local -seed 1 -seconds 20 -trace 0
//
// Every metric is printed as "workload metric value unit"; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A failed correctness check still
// prints the JSON line, with correct false, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"fedsc/internal/obs"
)

// procs is the GOMAXPROCS every run uses, so numbers taken on machines
// with different core counts stay comparable.
const procs = 2

// setups is how many times a run builds its workload from scratch;
// setup_s is the median of the builds, and the last one is measured.
const setups = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload
// reports every one; README.md gives each its meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"acc_pct", "%"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A workload that bypasses
// a layer reports 0 for that layer's shares and counts; layer time is
// reported as a share of operation wall time so that the only absolute
// times are ones every workload has.
var perLayer = []metricDef{
	{"bench.yardstick_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.op_p50_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_op", "count"},

	{"bench.pct", "%"},
	{"core.phase1.pct", "%"},
	{"core.phase2.pct", "%"},
	{"core.export.pct", "%"},
	{"core.phase3.pct", "%"},
	{"fednet.wait.pct", "%"},
	{"fednet.server.pct", "%"},
	{"privacy.codec.pct", "%"},
	{"serve.http.pct", "%"},
	{"serve.handler.pct", "%"},
	{"serve.engine.pct", "%"},
	{"serve.reload.pct", "%"},
	{"fleet.score.pct", "%"},
	{"fleet.publish.pct", "%"},
	{"store.pct", "%"},

	{"phase1.subspace.ssc.pct", "%"},
	{"phase1.subspace.ssc.calls", "count"},
	{"phase1.subspace.ssc.allocs", "count"},
	{"phase1.subspace.affinity.pct", "%"},
	{"phase1.subspace.affinity.calls", "count"},
	{"phase1.subspace.affinity.allocs", "count"},
	{"phase1.spectral.estimate.pct", "%"},
	{"phase1.spectral.estimate.calls", "count"},
	{"phase1.spectral.estimate.allocs", "count"},
	{"phase1.spectral.cluster.pct", "%"},
	{"phase1.spectral.cluster.calls", "count"},
	{"phase1.spectral.cluster.allocs", "count"},
	{"phase1.mat.singular_values.pct", "%"},
	{"phase1.mat.singular_values.calls", "count"},
	{"phase1.mat.singular_values.allocs", "count"},
	{"phase1.mat.truncated_svd.pct", "%"},
	{"phase1.mat.truncated_svd.calls", "count"},
	{"phase1.mat.truncated_svd.allocs", "count"},
	{"phase2.subspace.ssc.pct", "%"},
	{"phase2.subspace.ssc.calls", "count"},
	{"phase2.subspace.ssc.allocs", "count"},
	{"phase2.spectral.cluster.pct", "%"},
	{"phase2.spectral.cluster.calls", "count"},
	{"phase2.spectral.cluster.allocs", "count"},
	{"phase1.replay_match", "ratio"},
	{"phase1.replays", "count"},
	{"core.replay_match", "ratio"},
	{"core.replays", "count"},

	{"core.phase1.parallel_eff", "ratio"},
	{"core.phase1.r_match", "ratio"},
	{"core.phase2.pooled", "count"},

	{"fednet.uplink_bytes", "B"},
	{"fednet.downlink_bytes", "B"},
	{"fednet.payload_bits", "bit"},
	{"fednet.retries", "count"},
	{"fednet.failures", "count"},
	{"fednet.attempts_per_device", "count"},

	{"serve.batch_points_mean", "count"},
	{"serve.shed_frac", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"loadgen.late_frac", "ratio"},
	{"loadgen.achieved_frac", "ratio"},

	{"fleet.absorbed", "count"},
	{"fleet.spliced", "count"},
	{"fleet.absorb_ratio", "ratio"},
	{"fleet.versions", "count"},
	{"store.blob_bytes", "B"},
}

// workload is one named input set: setup builds an instance of it from
// the run's environment.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// workloads lists the benchmark's workloads; README.md records why each
// was chosen.
var workloads = []workload{
	{"round-local", setupRoundLocal},
	{"round-highdim", setupRoundHighDim},
	{"round-wire", setupRoundWire},
	{"serve-assign", setupServeAssign},
	{"fleet-join", setupFleetJoin},
}

// env is what a workload may use to build its inputs.
type env struct {
	seed    int64
	workdir string
}

// rng returns a fresh generator over the run's seed: every setup draws
// the same inputs.
func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// instance is one built workload.
type instance interface {
	// measure runs untraced operations within b and fills the
	// end-to-end metrics other than setup_s and peak_heap_mb.
	measure(b budget, out *outcome) error
	// trace alternates traced and untraced operations within b,
	// recording spans on tr, and fills the per-layer metrics.
	trace(b budget, tr *obs.Tracer, out *outcome) error
	// close releases the instance and waits for everything it started.
	close() error
}

// budget bounds a run's measurement: it lasts seconds, ending at
// deadline, or with -ops after that many operations. Loops call
// clock.tick between operations and report times through clock.
type budget struct {
	deadline time.Time
	seconds  time.Duration
	ops      int
	clock    *refClock
}

// more reports whether a loop that has completed done operations
// should start another.
func (b budget) more(done int) bool {
	if b.ops > 0 {
		return done < b.ops
	}
	return time.Now().Before(b.deadline)
}

// outcome collects one run's counts, failed checks, metric values and
// notes: numbers worth reading that are not metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	notes             []string
	values            map[string]float64
}

// note records one line for standard error.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints its report; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: round-local, round-highdim, round-wire, serve-assign or fleet-join")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds, after setup")
	ops := fs.Int("ops", 0, "stop after this many operations instead of after -seconds; serve-assign sends this many requests per segment")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for span files and temporary model stores")
	spans := fs.String("spans", "", "span JSONL file of a traced run (default <workdir>/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || *ops < 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of the five), -seconds > 0, -ops >= 0 and -trace 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *spans == "" {
		*spans = filepath.Join(*workdir, "spans-"+w.name+".jsonl")
	}
	runtime.GOMAXPROCS(procs)
	e := &env{seed: *seed, workdir: *workdir}
	b := budget{seconds: time.Duration(*seconds * float64(time.Second)), ops: *ops}
	out, err := runWorkload(w, e, b, *traced == 1, *spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := report(stdout, stderr, w.name, defs, out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload builds the workload setups times, measures the last build
// and releases it.
func runWorkload(w *workload, e *env, b budget, traced bool, spansPath string, stderr io.Writer) (out *outcome, err error) {
	var inst instance
	b.clock = newRefClock()
	durs := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		b.clock.sample()
		start := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, b.clock.ms(time.Since(start))/1000)
		if i < setups-1 {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("close setup: %w", err)
			}
			continue
		}
		inst = in
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	// Garbage left by the discarded builds must not count as the
	// measured build's heap.
	runtime.GC()
	out = &outcome{values: map[string]float64{}}
	defer func() {
		fmt.Fprintf(stderr, "bench: %s: yardstick median %.3f ms over %d samples; times are in reference ms (yardstick = %g ms)\n",
			w.name, b.clock.yardstickMS(), len(b.clock.samples), yardstickRefMS)
	}()
	b.deadline = time.Now().Add(b.seconds)
	if traced {
		defaultLayers(out)
		tr := obs.NewTracer(nil)
		if err := inst.trace(b, tr, out); err != nil {
			return nil, err
		}
		out.values["bench.yardstick_ms"] = b.clock.yardstickMS()
		if err := writeSpans(tr, spansPath, stderr); err != nil {
			return nil, err
		}
		return out, nil
	}
	sampler := startHeapSampler()
	err = inst.measure(b, out)
	peak := sampler.stop()
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = median(durs)
	out.values["peak_heap_mb"] = peak / (1 << 20)
	return out, nil
}

// defaultLayers fills every per-layer metric with its value for a
// workload that bypasses the layer: no time, no work, and no replay
// that disagreed.
func defaultLayers(out *outcome) {
	for _, d := range perLayer {
		out.values[d.name] = 0
	}
	out.values["phase1.replay_match"] = 1
	out.values["core.replay_match"] = 1
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs as "workload metric value unit",
// any failed checks to stderr, and the JSON result line last.
func report(stdout, stderr io.Writer, workload string, defs []metricDef, out *outcome) error {
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail("metric %s was not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	if res.Attempted < 1 {
		out.fail("no operation completed")
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "bench: %s: %s\n", workload, n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", workload, p)
	}
	res.Failed = out.failed
	res.Correct = out.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
