package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/fednet"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/privacy"
	"fedsc/internal/synth"
)

// round-wire shape: 8 devices in R^64, each holding 20 points from 2 of
// 4 four-dimensional subspaces, uploading at 8 bits per value.
const (
	wireDevices = 8
	wireAmbient = 64
	wireL       = 4
	wireBits    = 8
)

// wireRound is round-wire: a fednet.Server exporting a model and eight
// devices running the client protocol over loopback TCP with the
// quantized codec. Each device holds its connection until the reply,
// so the eight connections are the round's shape, not load.
type wireRound struct {
	ln    net.Listener
	local core.LocalOptions
	quant privacy.Quantizer
	rng   *rand.Rand
	reg   *obs.Registry
}

func setupRoundWire(e *env) (instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rng := e.rng()
	w := &wireRound{
		ln:    ln,
		local: core.LocalOptions{UseEigengap: true},
		quant: privacy.Quantizer{Bits: wireBits},
		rng:   rng,
		reg:   obs.NewRegistry(),
	}
	for i := 0; i < 3; i++ {
		d, seed := w.take()
		r := w.round(d, seed, nil)
		if _, err := w.check(d, r); err != nil {
			_ = ln.Close() // the warm-up error is the one to report
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}
	return w, nil
}

// wireInput draws one round-wire input. Device i holds 20 points from
// subspace i mod 4 and from one other, chosen so that every subspace
// lives on exactly four devices: with only eight devices a random
// choice would often leave a subspace with one or two pooled samples.
func wireInput(rng *rand.Rand) roundInput {
	s := synth.RandomSubspaces(wireAmbient, 4, wireL, rng)
	in := roundInput{}
	for dev := 0; dev < wireDevices; dev++ {
		counts := make([]int, wireL)
		counts[dev%wireL] = 20
		counts[(dev+1+dev/wireL)%wireL] = 20
		ds := s.SampleCounts(counts, rng)
		in.devices = append(in.devices, ds.X)
		in.truth = append(in.truth, ds.Labels)
		in.present = append(in.present, 2)
	}
	return in
}

func (w *wireRound) close() error { return w.ln.Close() }

// take draws the next round's input and seed.
func (w *wireRound) take() (roundInput, int64) {
	d := wireInput(w.rng)
	return d, w.rng.Int63()
}

// wireResult is everything one networked round returned.
type wireResult struct {
	stats   fednet.ServeStats
	srvErr  error
	clients []fednet.ClientResult
	errs    []error
	seeds   []int64
}

// round runs one networked round: the server and every client in their
// own goroutines, all joined before it returns. With tr set, the server
// records its own phase spans and each call runs under a bench span.
func (w *wireRound) round(d roundInput, seed int64, tr *obs.Tracer) wireResult {
	z := len(d.devices)
	r := wireResult{clients: make([]fednet.ClientResult, z), errs: make([]error, z), seeds: deviceSeeds(seed, z)}
	srv := &fednet.Server{
		L: wireL, Expect: z, Seed: seed, Export: true,
		// A device that never connects must not hold the round forever.
		WaitTimeout: 10 * time.Second,
		Obs:         w.reg,
		Trace:       tr,
	}
	policy := fednet.RetryPolicy{MaxAttempts: 1, Timeout: 10 * time.Second}
	addr := w.ln.Addr().String()
	root := tr.Start("round")
	defer root.End()
	var wg sync.WaitGroup
	wg.Add(1 + z)
	go func() {
		defer wg.Done()
		sp := root.Start("fednet.serve")
		defer sp.End()
		r.stats, r.srvErr = srv.Serve(w.ln)
	}()
	for dev := 0; dev < z; dev++ {
		go func(dev int) {
			defer wg.Done()
			sp := root.Start("fednet.client")
			defer sp.End()
			dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) }
			r.clients[dev], r.errs[dev] = fednet.RunClientDialerWire(dial, dev, d.devices[dev], w.local, policy,
				fednet.WireOptions{Quant: &w.quant}, rand.New(rand.NewSource(r.seeds[dev])))
		}(dev)
	}
	wg.Wait()
	return r
}

// check verifies a round — every device pooled and answered, no
// failure, and the uplink payload equal to the Section IV-E formula
// n·q·Σr — and returns its accuracy.
func (w *wireRound) check(d roundInput, r wireResult) (float64, error) {
	if r.srvErr != nil {
		return 0, fmt.Errorf("server: %w", r.srvErr)
	}
	labels := make([][]int, len(r.clients))
	sumR := 0
	for dev, c := range r.clients {
		if r.errs[dev] != nil {
			return 0, fmt.Errorf("device %d: %w", dev, r.errs[dev])
		}
		labels[dev] = c.Labels
		sumR += c.R
	}
	if r.stats.Devices != len(d.devices) || len(r.stats.Failures) > 0 {
		return 0, fmt.Errorf("server pooled %d of %d devices, failures %v", r.stats.Devices, len(d.devices), r.stats.Failures)
	}
	if want := int64(wireAmbient * wireBits * sumR); r.stats.UplinkPayloadBits != want {
		return 0, fmt.Errorf("uplink payload %d bits, the n·q·Σr formula gives %d", r.stats.UplinkPayloadBits, want)
	}
	if r.stats.Model == nil {
		return 0, fmt.Errorf("server exported no model")
	}
	return roundAccuracy(d, labels, wireL)
}

func (w *wireRound) measure(b budget, out *outcome) error {
	var lat, accs []float64
	for b.more(len(lat)) {
		b.clock.tick()
		d, seed := w.take()
		start := time.Now()
		r := w.round(d, seed, nil)
		lat = append(lat, b.clock.ms(time.Since(start)))
		out.attempted++
		acc, err := w.check(d, r)
		if err != nil {
			out.fail("round %d: %v", out.attempted, err)
			continue
		}
		accs = append(accs, acc)
	}
	closedLoop(out, lat)
	accuracy(out, accs, 90)
	return nil
}

// trace runs pairs of rounds on the same input and seed, untraced then
// traced, and after each traced round replays in process what the
// devices and the server computed: every device's Phase 1 (whole and
// kernel by kernel), the codec's pack and unpack, the server's central
// solve and export, and the whole aggregation, whose labels must equal
// the networked ones.
func (w *wireRound) trace(b budget, tr *obs.Tracer, out *outcome) error {
	k := newKernels()
	var mem memDelta
	var untraced, traced []float64
	var replays, matched, devReplays, devMatched, rMatch, devices, pooled int
	var up, down, bits, retries, failures, attempts float64
	opts := core.Options{Local: w.local, Obs: w.reg}
	for b.more(len(traced)) {
		b.clock.tick()
		d, seed := w.take()
		before := readMem()
		start := time.Now()
		ref := w.round(d, seed, nil)
		untraced = append(untraced, b.clock.ms(time.Since(start)))
		mem.add(before, readMem(), 1)
		start = time.Now()
		r := w.round(d, seed, tr)
		traced = append(traced, b.clock.ms(time.Since(start)))
		out.attempted += 2
		if _, err := w.check(d, ref); err != nil {
			out.fail("untraced round %d: %v", out.attempted/2, err)
			continue
		}
		if _, err := w.check(d, r); err != nil {
			out.fail("traced round %d: %v", out.attempted/2, err)
			continue
		}
		up += float64(r.stats.UplinkBytes)
		down += float64(r.stats.DownlinkBytes)
		bits += float64(r.stats.UplinkPayloadBits)
		retries += float64(r.stats.Retries)
		failures += float64(len(r.stats.Failures))

		rp := tr.Start("replay")
		locals := make([]core.LocalResult, len(d.devices))
		var assigned []int
		labels := make([][]int, len(d.devices))
		for dev, x := range d.devices {
			k.time(rp, "core.local", func() {
				locals[dev] = core.LocalClusterAndSample(x, w.local, rand.New(rand.NewSource(r.seeds[dev])))
			})
			devReplays++
			if replayLocal(k, rp, x, w.local, r.seeds[dev], locals[dev]) {
				devMatched++
			}
			if locals[dev].R() == d.present[dev] {
				rMatch++
			}
			if err := w.replayCodec(k, rp, locals[dev].Samples); err != nil {
				rp.End()
				return fmt.Errorf("replay codec: %w", err)
			}
			if _, err := w.quant.Apply(locals[dev].Samples); err != nil {
				rp.End()
				return fmt.Errorf("replay quantizer: %w", err)
			}
			assigned = append(assigned, r.clients[dev].SampleAssignments...)
			labels[dev] = r.clients[dev].Labels
			attempts += float64(r.clients[dev].Attempts)
		}
		theta := samplesOf(locals)
		ok := replayCentral(k, rp, theta, len(d.devices), wireL, opts, func() *rand.Rand { return rand.New(rand.NewSource(seed)) }, assigned)
		inproc := core.Aggregate(d.devices, locals, wireL, opts, rand.New(rand.NewSource(seed)))
		rp.End()
		replays++
		if ok && sameLabels(inproc.Labels, labels) {
			matched++
		}
		devices += len(d.devices)
		pooled += theta.Cols()
	}
	totals, err := totalsOf(tr)
	if err != nil {
		return err
	}
	wall := totals.get("round").durMS
	ops := totals.get("round").count
	local, central, export := totals.get("replay/core.local"), totals.get("fednet.round/central"), totals.get("replay/core.export")
	v := out.values
	v["bench.pct"] = pct(totals.get("round").self, wall)
	v["core.phase1.pct"] = pct(local.durMS, wall)
	v["fednet.wait.pct"] = pct(totals.get("round/fednet.client").durMS-local.durMS, wall)
	v["core.phase2.pct"] = pct(central.durMS-export.durMS, wall)
	v["core.export.pct"] = pct(export.durMS, wall)
	v["fednet.server.pct"] = pct(totals.get("fednet.round").durMS-central.durMS, wall)
	v["privacy.codec.pct"] = pct(totals.get("replay/privacy.pack").durMS+totals.get("replay/privacy.unpack").durMS, wall)
	if devices > 0 {
		v["core.phase1.r_match"] = float64(rMatch) / float64(devices)
		v["fednet.attempts_per_device"] = attempts / float64(devices)
	}
	if replays > 0 {
		n := float64(replays)
		v["core.phase2.pooled"] = float64(pooled) / n
		v["fednet.uplink_bytes"] = up / n
		v["fednet.downlink_bytes"] = down / n
		v["fednet.payload_bits"] = bits / n
		v["fednet.retries"] = retries / n
		v["fednet.failures"] = failures / n
	}
	v["core.replay_match"] = matchShare(matched, replays)
	v["core.replays"] = float64(replays)
	v["phase1.replay_match"] = matchShare(devMatched, devReplays)
	v["phase1.replays"] = float64(devReplays)
	k.fill(out, totals, ops, wall)
	overhead(out, traced, untraced)
	mem.fill(out)
	if devMatched != devReplays || matched != replays {
		out.fail("replays disagree: %d of %d rounds and %d of %d devices matched", matched, replays, devMatched, devReplays)
	}
	return nil
}

// replayCodec packs one device's samples with the wire quantizer and
// unpacks them again, each under a span.
func (w *wireRound) replayCodec(k *kernels, parent *obs.Span, samples *mat.Dense) error {
	var packed []byte
	var err error
	k.time(parent, "privacy.pack", func() { packed, err = w.quant.Pack(samples.Data()) })
	if err != nil {
		return err
	}
	k.time(parent, "privacy.unpack", func() { _, err = w.quant.Unpack(packed, len(samples.Data())) })
	return err
}
