package main

import (
	"fmt"
	"math/rand"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/datasets"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/sparse"
	"fedsc/internal/spectral"
	"fedsc/internal/subspace"
	"fedsc/internal/synth"
)

// roundInput is one federated round's data: each device's points and
// their ground-truth subspaces.
type roundInput struct {
	devices []*mat.Dense
	truth   [][]int
	// present[z] is how many distinct subspaces device z holds, the r a
	// perfect Phase 1 would find.
	present []int
}

// deviceCounts draws one device's per-subspace point counts: per points
// from each of lprime distinct subspaces out of l.
func deviceCounts(l, lprime, per int, rng *rand.Rand) []int {
	counts := make([]int, l)
	for _, c := range rng.Perm(l)[:lprime] {
		counts[c] = per
	}
	return counts
}

// syntheticRound draws z devices over l random d-dimensional subspaces
// of R^n, each device holding per points from each of lprime subspaces.
func syntheticRound(n, d, l, z, lprime, per int, rng *rand.Rand) roundInput {
	return syntheticRoundOver(synth.RandomSubspaces(n, d, l, rng), z, lprime, per, rng)
}

// syntheticRoundOver draws z devices over the given subspaces, each
// holding per points from each of lprime of them.
func syntheticRoundOver(s synth.Subspaces, z, lprime, per int, rng *rand.Rand) roundInput {
	in := roundInput{}
	for dev := 0; dev < z; dev++ {
		ds := s.SampleCounts(deviceCounts(s.L(), lprime, per, rng), rng)
		in.devices = append(in.devices, ds.X)
		in.truth = append(in.truth, ds.Labels)
		in.present = append(in.present, lprime)
	}
	return in
}

// highDimRound draws the simulated-EMNIST round: 62 classes in R^256,
// 600 points split over 30 devices holding 2 to 4 classes each.
func highDimRound(rng *rand.Rand) roundInput {
	ds := datasets.SimEMNIST(datasets.DefaultEMNIST(), 600, rng)
	part := synth.PartitionNonIIDRange(ds.Labels, 62, 30, 2, 4, rng)
	in := roundInput{}
	for _, pts := range part.Points {
		sub := ds.Select(pts)
		in.devices = append(in.devices, sub.X)
		in.truth = append(in.truth, sub.Labels)
		in.present = append(in.present, distinct(sub.Labels))
	}
	return in
}

func distinct(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// roundAccuracy scores per-device labels against the truth (Hungarian
// accuracy over all points of the round) after checking their shape.
func roundAccuracy(in roundInput, labels [][]int, l int) (float64, error) {
	if len(labels) != len(in.devices) {
		return 0, fmt.Errorf("%d label vectors for %d devices", len(labels), len(in.devices))
	}
	var truth, pred []int
	for z, lab := range labels {
		if len(lab) != len(in.truth[z]) {
			return 0, fmt.Errorf("device %d: %d labels for %d points", z, len(lab), len(in.truth[z]))
		}
		for _, g := range lab {
			if g < 0 || g >= l {
				return 0, fmt.Errorf("device %d: label %d outside [0, %d)", z, g, l)
			}
		}
		truth = append(truth, in.truth[z]...)
		pred = append(pred, lab...)
	}
	return metrics.Accuracy(truth, pred), nil
}

// inproc is an in-process Fed-SC round workload (core.Run). Every round
// runs on freshly drawn data, so a run's medians average over hundreds
// of inputs rather than over one draw's luck.
type inproc struct {
	l     int
	opts  core.Options
	gen   func(*rand.Rand) roundInput
	rng   *rand.Rand
	floor float64
}

// setupRoundLocal builds round-local: 40 devices × 30 points from 2 of
// 8 five-dimensional subspaces of R^20, eigengap Phase 1. Phase 1 is
// most of the round here.
func setupRoundLocal(e *env) (instance, error) {
	in := &inproc{
		l:     8,
		opts:  core.Options{Local: core.LocalOptions{UseEigengap: true}, Obs: obs.NewRegistry()},
		gen:   func(rng *rand.Rand) roundInput { return syntheticRound(20, 5, 8, 40, 2, 15, rng) },
		rng:   e.rng(),
		floor: 90,
	}
	return in, in.warmUp()
}

// setupRoundHighDim builds round-highdim: simulated EMNIST with the
// paper's real-data rule (r = RMax = 4, d_t = 1). Phase 1 skips the
// eigengap and singular-value steps, so the central solve dominates.
func setupRoundHighDim(e *env) (instance, error) {
	in := &inproc{
		l:     62,
		opts:  core.Options{Local: core.LocalOptions{RMax: 4, TargetDim: 1}, Obs: obs.NewRegistry()},
		gen:   highDimRound,
		rng:   e.rng(),
		floor: 50,
	}
	return in, in.warmUp()
}

// warmUp runs one round, so the first measured round does not pay for
// first-use costs.
func (in *inproc) warmUp() error {
	d, seed := in.take()
	res := core.Run(d.devices, in.l, in.opts, rand.New(rand.NewSource(seed)))
	if _, err := roundAccuracy(d, res.Labels, in.l); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	return nil
}

func (in *inproc) close() error { return nil }

// take draws the next round's input and seed.
func (in *inproc) take() (roundInput, int64) {
	d := in.gen(in.rng)
	return d, in.rng.Int63()
}

func (in *inproc) measure(b budget, out *outcome) error {
	var lat, accs []float64
	for b.more(len(lat)) {
		b.clock.tick()
		d, seed := in.take()
		start := time.Now()
		res := core.Run(d.devices, in.l, in.opts, rand.New(rand.NewSource(seed)))
		lat = append(lat, b.clock.ms(time.Since(start)))
		out.attempted++
		acc, err := roundAccuracy(d, res.Labels, in.l)
		if err != nil {
			out.fail("round %d: %v", out.attempted, err)
			continue
		}
		accs = append(accs, acc)
	}
	closedLoop(out, lat)
	accuracy(out, accs, in.floor)
	return nil
}

// trace runs pairs of rounds on the same input and seed: core.Run
// untraced, then the same round decomposed into its public calls under
// spans (every device's LocalClusterAndSample, then Aggregate). The two
// must agree. After each pair the central solve, the basis export and
// every device's Phase 1 are replayed kernel by kernel.
func (in *inproc) trace(b budget, tr *obs.Tracer, out *outcome) error {
	k := newKernels()
	var mem memDelta
	var untraced, traced []float64
	var replays, matched, devReplays, devMatched, rMatch, devices, pooled int
	for b.more(len(traced)) {
		b.clock.tick()
		d, seed := in.take()
		before := readMem()
		start := time.Now()
		ref := core.Run(d.devices, in.l, in.opts, rand.New(rand.NewSource(seed)))
		untraced = append(untraced, b.clock.ms(time.Since(start)))
		mem.add(before, readMem(), 1)

		start = time.Now()
		res, locals := in.decomposed(tr, d, seed)
		traced = append(traced, b.clock.ms(time.Since(start)))
		out.attempted += 2
		for _, labels := range [][][]int{ref.Labels, res.Labels} {
			if _, err := roundAccuracy(d, labels, in.l); err != nil {
				out.fail("round %d: %v", out.attempted, err)
			}
		}

		rp := tr.Start("replay")
		theta := samplesOf(locals)
		ok := replayCentral(k, rp, theta, len(d.devices), in.l, in.opts, func() *rand.Rand { return positioned(seed, len(d.devices)) }, flatSampleLabels(res.SampleLabels))
		replays++
		if ok && sameLabels(res.Labels, ref.Labels) {
			matched++
		}
		seeds := deviceSeeds(seed, len(d.devices))
		for dev, x := range d.devices {
			devReplays++
			if replayLocal(k, rp, x, in.opts.Local, seeds[dev], locals[dev]) {
				devMatched++
			}
			if locals[dev].R() == d.present[dev] {
				rMatch++
			}
		}
		rp.End()
		devices += len(d.devices)
		pooled += theta.Cols()
	}
	totals, err := totalsOf(tr)
	if err != nil {
		return err
	}
	wall := totals.get("round").durMS
	ops := totals.get("round").count
	local, p1, agg := totals.get("round/core.local"), totals.get("round/core.phase1"), totals.get("round/core.aggregate")
	central, export := totals.get("replay/core.central"), totals.get("replay/core.export")
	v := out.values
	v["bench.pct"] = pct(totals.get("round").self, wall)
	v["core.phase1.pct"] = pct(local.durMS+p1.self, wall)
	v["core.phase2.pct"] = pct(central.durMS, wall)
	v["core.export.pct"] = pct(export.durMS, wall)
	v["core.phase3.pct"] = pct(agg.durMS-central.durMS-export.durMS, wall)
	if p1.durMS > 0 {
		v["core.phase1.parallel_eff"] = local.durMS / (p1.durMS * procs)
	}
	if devices > 0 {
		v["core.phase1.r_match"] = float64(rMatch) / float64(devices)
	}
	if ops > 0 {
		v["core.phase2.pooled"] = float64(pooled) / float64(ops)
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

// decomposed runs one round as core.Run would, call by call, each under
// a span: per-device Phase 1 in parallel, then Phases 2 and 3.
func (in *inproc) decomposed(tr *obs.Tracer, d roundInput, seed int64) (core.Result, []core.LocalResult) {
	root := tr.Start("round")
	defer root.End()
	seeds := deviceSeeds(seed, len(d.devices))
	locals := make([]core.LocalResult, len(d.devices))
	p1 := root.Start("core.phase1")
	mat.Parallel(len(d.devices), 1<<30, func(lo, hi int) {
		for dev := lo; dev < hi; dev++ {
			sp := p1.Start("core.local")
			locals[dev] = core.LocalClusterAndSample(d.devices[dev], in.opts.Local, rand.New(rand.NewSource(seeds[dev])))
			sp.End()
		}
	})
	p1.End()
	ag := root.Start("core.aggregate")
	res := core.Aggregate(d.devices, locals, in.l, in.opts, positioned(seed, len(d.devices)))
	ag.End()
	return res, locals
}

// deviceSeeds returns the per-device Phase 1 seeds core.Run derives
// from a round seed.
func deviceSeeds(seed int64, z int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, z)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// positioned returns the round generator as core.Run hands it to
// Phase 2: seeded, after the z per-device draws.
func positioned(seed int64, z int) *rand.Rand {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < z; i++ {
		rng.Int63()
	}
	return rng
}

// samplesOf pools the devices' uploaded samples as Phase 2 sees them.
func samplesOf(locals []core.LocalResult) *mat.Dense {
	parts := make([]*mat.Dense, len(locals))
	for i, lr := range locals {
		parts[i] = lr.Samples
	}
	return mat.HStack(parts...)
}

func flatSampleLabels(s [][]int) []int {
	var out []int
	for _, l := range s {
		out = append(out, l...)
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameLabels(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameInts(a[i], b[i]) {
			return false
		}
	}
	return true
}

// replayCentral replays Phase 2 on the pooled samples theta: the
// central solve (core.CentralCluster), the basis export
// (core.GlobalBases), and the solve's two kernels, SSC self-expression
// and spectral clustering. rng must return the generator Phase 2 was
// handed. It reports whether the solve reproduced want, the round's
// per-sample labels, and the kernels reproduced the solve.
func replayCentral(k *kernels, parent *obs.Span, theta *mat.Dense, z, l int, opts core.Options, rng func() *rand.Rand, want []int) bool {
	central := opts.Central
	if central.Method == "" {
		central.Method = core.CentralSSC
	}
	var res subspace.Result
	k.time(parent, "core.central", func() { res = core.CentralCluster(theta, z, l, central, rng()) })
	k.time(parent, "core.export", func() { core.GlobalBases(theta, res.Labels, l, opts.Local.TargetDim) })
	if central.Method != core.CentralSSC || central.Shards > 1 || central.SketchSize > 0 {
		return sameInts(res.Labels, want)
	}
	var coef [][]float64
	var w *sparse.CSR
	k.time(parent, "phase2.subspace.ssc", func() {
		coef = subspace.SSCCoefficients(theta, central.SSC)
		w = subspace.AffinityFromCoefficients(coef, dropTol(central.SSC))
	})
	var labels []int
	k.time(parent, "phase2.spectral.cluster", func() { labels = spectral.Cluster(w, l, rng()) })
	return sameInts(res.Labels, want) && sameInts(labels, res.Labels)
}

// replayLocal replays core.LocalClusterAndSample on one device's points
// kernel by kernel — SSC self-expression, affinity, eigengap estimate
// or fixed-r spectral clustering, and per cluster the singular values
// (when the dimension is estimated) and the truncated SVD — and reports
// whether the replayed partitions equal want's.
func replayLocal(k *kernels, parent *obs.Span, x *mat.Dense, opts core.LocalOptions, seed int64, want core.LocalResult) bool {
	rng := rand.New(rand.NewSource(seed))
	cols := x.Cols()
	var parts [][]int
	switch {
	case cols == 0:
	case cols == 1:
		parts = [][]int{{0}}
	default:
		var coef [][]float64
		k.time(parent, "phase1.subspace.ssc", func() { coef = subspace.SSCCoefficients(x, opts.SSC) })
		var w *sparse.CSR
		k.time(parent, "phase1.subspace.affinity", func() { w = subspace.AffinityFromCoefficients(coef, dropTol(opts.SSC)) })
		var r int
		var labels []int
		if opts.UseEigengap || opts.RMax <= 0 {
			k.time(parent, "phase1.spectral.estimate", func() { r, labels = spectral.EstimateAndCluster(w, opts.RMax, rng) })
		} else {
			r = min(opts.RMax, cols)
			k.time(parent, "phase1.spectral.cluster", func() { labels = spectral.Cluster(w, r, rng) })
		}
		r = max(r, 1)
		all := make([][]int, r)
		for i, t := range labels {
			all[t] = append(all[t], i)
		}
		for _, p := range all {
			if len(p) > 0 {
				parts = append(parts, p)
			}
		}
	}
	if len(parts) != len(want.Partitions) {
		return false
	}
	for t, idx := range parts {
		sub := x.SelectCols(idx)
		if opts.TargetDim <= 0 {
			k.time(parent, "phase1.mat.singular_values", func() { mat.SingularValues(sub) })
		}
		k.time(parent, "phase1.mat.truncated_svd", func() { mat.TruncatedSVD(sub, want.Dims[t]) })
	}
	return sameLabels(parts, want.Partitions)
}

// dropTol is the affinity cutoff SSC applies by default.
func dropTol(o subspace.SSCOptions) float64 {
	if o.DropTol > 0 {
		return o.DropTol
	}
	return 1e-8
}
