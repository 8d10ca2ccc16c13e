package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between the two closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop fills the latency and throughput metrics of a closed loop
// with one caller: the median operation latency, the tail, and
// operations completed per second of operation time. The tail is the
// median, over consecutive windows of tailWindow operations, of each
// window's 90th percentile (the plain 90th percentile below two
// windows), so a stall of the machine moves one window, not the result.
func closedLoop(out *outcome, latMS []float64) {
	out.values["op_p50_ms"] = median(latMS)
	out.values["op_tail_ms"] = windowedQuantile(latMS, tailWindow, 0.9)
	if total := sum(latMS); total > 0 {
		out.values["ops_per_s"] = float64(len(latMS)) / (total / 1000)
	}
}

// tailWindow is the window of a closed loop's tail: 100 operations, so
// each window's 90th percentile has ten above it.
const tailWindow = 100

// windowedQuantile is the median over consecutive windows of w values
// of each window's q-quantile; a short last window joins the one before.
func windowedQuantile(xs []float64, w int, q float64) float64 {
	if len(xs) < 2*w {
		return quantile(xs, q)
	}
	var qs []float64
	for lo := 0; lo+w <= len(xs); lo += w {
		hi := lo + w
		if len(xs)-hi < w {
			hi = len(xs)
		}
		qs = append(qs, quantile(xs[lo:hi], q))
	}
	return median(qs)
}

// accuracy fills acc_pct with the mean of per-operation accuracies and
// fails the run when it is below floor percent. One round's accuracy
// swings by several points, so the floor applies to means over at
// least floorOps operations.
func accuracy(out *outcome, accs []float64, floor float64) {
	acc := mean(accs)
	out.values["acc_pct"] = acc
	if len(accs) >= floorOps && acc < floor {
		out.fail("mean accuracy %.2f%% over %d operations is below the %.0f%% floor", acc, len(accs), floor)
	}
}

// floorOps is how many operations an accuracy floor needs.
const floorOps = 10

// overhead fills the tracing overhead: the traced median operation
// time over the untraced one, minus one.
func overhead(out *outcome, tracedMS, untracedMS []float64) {
	out.values["trace.op_p50_ms"] = median(tracedMS)
	if base := median(untracedMS); base > 0 {
		out.values["trace.overhead_frac"] = median(tracedMS)/base - 1
	}
}

// memCounters are the runtime's cumulative allocation counters.
type memCounters struct{ objects, bytes, gcs uint64 }

var memSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readMem() memCounters {
	s := make([]metrics.Sample, len(memSamples))
	for i, name := range memSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return memCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// memDelta accumulates allocation counters over the operations measured.
type memDelta struct {
	objects, bytes, gcs float64
	ops                 int
}

func (d *memDelta) add(before, after memCounters, ops int) {
	d.objects += float64(after.objects - before.objects)
	d.bytes += float64(after.bytes - before.bytes)
	d.gcs += float64(after.gcs - before.gcs)
	d.ops += ops
}

// fill sets the runtime.* per-operation metrics.
func (d *memDelta) fill(out *outcome) {
	if d.ops == 0 {
		return
	}
	n := float64(d.ops)
	out.values["runtime.allocs_per_op"] = d.objects / n
	out.values["runtime.alloc_kb_per_op"] = d.bytes / 1024 / n
	out.values["runtime.gc_cycles_per_op"] = d.gcs / n
}

// heapSampler reads the heap's live-and-unswept object bytes every
// 10ms from one goroutine, which stop joins, and keeps the highest
// reading of each one-second window. The reported peak is the median of
// the window peaks, so one badly timed collection does not set it.
type heapSampler struct {
	done  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := read()
		end := time.Now().Add(time.Second)
		for {
			select {
			case <-h.done:
				h.peaks = append(h.peaks, max(peak, read()))
				return
			case now := <-tick.C:
				peak = max(peak, read())
				if now.After(end) {
					h.peaks = append(h.peaks, peak)
					peak, end = 0, now.Add(time.Second)
				}
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the median window peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return median(h.peaks)
}
