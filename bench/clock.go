package main

import (
	"runtime"
	"sync"
	"time"
)

// Reference time. The machines this benchmark runs on share their
// cores with other tenants, and the speed they deliver swings by up to
// 2x over minutes: a fixed round measured 49 ms for a minute and 29 ms
// the next. A run therefore times, between operations, a yardstick the
// benchmark owns and no change to the repository touches, and reports
// compute-bound times in reference milliseconds: the measured time
// scaled by yardstickRefMS over the yardstick's latest time. On a
// machine where the yardstick takes yardstickRefMS, reference and wall
// milliseconds agree. Rates are scaled the other way, so an open loop
// offers the same share of the machine's capacity whatever its speed.

// yardstickRefMS is the yardstick time that defines one reference
// millisecond.
const yardstickRefMS = 1.0

// samplePeriod is how often a run re-times the yardstick: often enough
// to follow the swings, at about 2% of the run.
const samplePeriod = 100 * time.Millisecond

// yardstickN is the side of the yardstick's matrices.
const yardstickN = 64

// yardstick multiplies two fixed 64×64 matrices four times on each of
// procs goroutines with a plain triple loop and returns the time it
// took. It uses the cores, caches and scheduler the way the measured
// work does, so it slows down with it.
func yardstick() time.Duration {
	a := make([]float64, yardstickN*yardstickN)
	b := make([]float64, yardstickN*yardstickN)
	for i := range a {
		a[i] = float64(i%7) / 7
		b[i] = float64(i%5) / 5
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(procs)
	for g := 0; g < procs; g++ {
		go func() {
			defer wg.Done()
			c := make([]float64, yardstickN*yardstickN)
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < yardstickN; i++ {
					for k := 0; k < yardstickN; k++ {
						aik := a[i*yardstickN+k]
						for j := 0; j < yardstickN; j++ {
							c[i*yardstickN+j] += aik * b[k*yardstickN+j]
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// refClock converts measured times to reference milliseconds.
type refClock struct {
	samples []float64 // yardstick times, ms
	factor  float64   // reference ms per measured ms
	last    time.Time
}

// newRefClock times the yardstick once.
func newRefClock() *refClock {
	c := &refClock{}
	c.sample()
	return c
}

// sample re-times the yardstick after a collection, so no background
// mark work competes with it.
func (c *refClock) sample() {
	runtime.GC()
	y := ms(yardstick())
	c.samples = append(c.samples, y)
	c.factor = yardstickRefMS / y
	c.last = time.Now()
}

// tick re-times the yardstick when the last sample is older than
// samplePeriod; loops call it between operations.
func (c *refClock) tick() {
	if time.Since(c.last) >= samplePeriod {
		c.sample()
	}
}

// ms converts a measured duration to reference milliseconds.
func (c *refClock) ms(d time.Duration) float64 { return ms(d) * c.factor }

// recentFactor is the factor over the median of the last few samples:
// steadier than the latest sample alone, for scaling a rate that then
// holds for a whole segment.
func (c *refClock) recentFactor() float64 {
	recent := c.samples[max(0, len(c.samples)-5):]
	return yardstickRefMS / median(recent)
}

// yardstickMS is the median yardstick time over the run, ms.
func (c *refClock) yardstickMS() float64 { return median(c.samples) }
