package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"fedsc/internal/obs"
)

// Traced runs time each layer from outside: the benchmark opens an
// obs span around every call it makes into a module's public API (and
// hands its tracer to modules that record their own phase spans), then
// reads the timings back from the tracer's JSONL export. A span's self
// time is its duration minus the part of that interval its children
// cover.

// spanRecord is the subset of one exported JSONL line the benchmark
// reads back.
type spanRecord struct {
	Name     string `json:"name"`
	StartUS  *int64 `json:"start_us"`
	DurUS    *int64 `json:"dur_us"`
	Children int    `json:"children"`
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	count       int
	durMS, self float64
}

// spanTotals maps "root/name" (or a root's own name) to the totals of
// those spans.
type spanTotals map[string]*spanTotal

func (t spanTotals) get(name string) spanTotal {
	if s := t[name]; s != nil {
		return *s
	}
	return spanTotal{}
}

// totalsOf sums every span of tr by name.
func totalsOf(tr *obs.Tracer) (spanTotals, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, true); err != nil {
		return nil, err
	}
	var recs []spanRecord
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var r spanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("read span export: %w", err)
		}
		if r.StartUS == nil || r.DurUS == nil {
			return nil, fmt.Errorf("span %q exported without times", r.Name)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	totals := spanTotals{}
	// The export is depth first with each span's child count, so one
	// pass rebuilds the tree. Spans are keyed by name under the name of
	// their root, "root/name", and roots by their own name.
	var walk func(i int, root string) (next int, start, end int64)
	walk = func(i int, root string) (int, int64, int64) {
		r := recs[i]
		key := r.Name
		if root == "" {
			root = r.Name
		} else {
			key = root + "/" + r.Name
		}
		start, end := *r.StartUS, *r.StartUS+*r.DurUS
		next := i + 1
		var kids [][2]int64
		for c := 0; c < r.Children; c++ {
			var cs, ce int64
			next, cs, ce = walk(next, root)
			kids = append(kids, [2]int64{cs, ce})
		}
		t := totals[key]
		if t == nil {
			t = &spanTotal{}
			totals[key] = t
		}
		t.count++
		t.durMS += float64(*r.DurUS) / 1000
		t.self += float64(*r.DurUS-covered(kids, start, end)) / 1000
		return next, start, end
	}
	for i := 0; i < len(recs); {
		i, _, _ = walk(i, "")
	}
	return totals, nil
}

// covered returns how many microseconds of [start, end) the intervals
// cover, counting overlaps once.
func covered(iv [][2]int64, start, end int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64 = 0, start
	for _, v := range iv {
		lo, hi := v[0], v[1]
		if lo < reach {
			lo = reach
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// writeSpans saves tr's JSONL export to path and prints the self-time
// table to w.
func writeSpans(tr *obs.Tracer, path string, w io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteJSONL(bw, true); err != nil {
		_ = f.Close() // the export error is the one to report
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	totals, err := totalsOf(tr)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		t := totals[name]
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", name, t.count, t.durMS, t.self)
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return nil
}

// kernels times replayed kernel calls under spans and counts the heap
// objects each allocates. Replays run one at a time, so the process-wide
// allocation counter attributes to the call being timed.
type kernels struct {
	allocs map[string]float64
}

func newKernels() *kernels { return &kernels{allocs: map[string]float64{}} }

// time runs fn under a span named name, a child of parent.
func (k *kernels) time(parent *obs.Span, name string, fn func()) {
	before := readMem()
	sp := parent.Start(name)
	fn()
	sp.End()
	after := readMem()
	k.allocs[name] += float64(after.objects - before.objects)
}

// kernelNames are the replayed kernels reported per layer.
var kernelNames = []string{
	"phase1.subspace.ssc",
	"phase1.subspace.affinity",
	"phase1.spectral.estimate",
	"phase1.spectral.cluster",
	"phase1.mat.singular_values",
	"phase1.mat.truncated_svd",
	"phase2.subspace.ssc",
	"phase2.spectral.cluster",
}

// fill sets each kernel's share of operation wall time, its calls per
// operation and its allocations per call, from the kernel spans under
// the "replay" roots.
func (k *kernels) fill(out *outcome, totals spanTotals, ops int, wallMS float64) {
	if ops == 0 || wallMS <= 0 {
		return
	}
	for _, name := range kernelNames {
		t := totals.get("replay/" + name)
		out.values[name+".pct"] = 100 * t.durMS / wallMS
		out.values[name+".calls"] = float64(t.count) / float64(ops)
		if t.count > 0 {
			out.values[name+".allocs"] = k.allocs[name] / float64(t.count)
		}
	}
}

// pct is part over whole as a percentage, 0 when whole is empty.
func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	if part < 0 {
		part = 0
	}
	return 100 * part / whole
}

// matchShare is the share of replays that matched, 1 for none.
func matchShare(matched, replays int) float64 {
	if replays == 0 {
		return 1
	}
	return float64(matched) / float64(replays)
}
