package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/fleet"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/store"
	"fedsc/internal/synth"
)

// fleet-join scenario shape: 15 three-dimensional subspaces of R^30.
// Six founding devices see 3 of them; then come 48 join waves of two
// devices, every fourth of which brings one unseen subspace.
const (
	fleetAmbient = 30
	fleetWorld   = 15
	fleetDim     = 3
	fleetFounded = 3
	fleetWaves   = 48
	fleetEvery   = 4
	fleetPer     = 15
)

// scenario is one continuous-federation history.
type scenario struct {
	seed     int64
	founding []*mat.Dense
	waves    [][]*mat.Dense
	novel    []bool // wave w brings an unseen subspace
	// present[w][i] is how many subspaces device i of wave w holds.
	present [][]int
	all     []*mat.Dense // every device, founding first, for accuracy
	truth   [][]int
}

func newScenario(rng *rand.Rand) *scenario {
	s := synth.RandomSubspaces(fleetAmbient, fleetDim, fleetWorld, rng)
	sc := &scenario{seed: rng.Int63()}
	device := func(subs ...int) *mat.Dense {
		counts := make([]int, fleetWorld)
		for _, c := range subs {
			counts[c] = fleetPer
		}
		ds := s.SampleCounts(counts, rng)
		sc.all = append(sc.all, ds.X)
		sc.truth = append(sc.truth, ds.Labels)
		return ds.X
	}
	for _, subs := range [][]int{{0, 1}, {1, 2}, {0, 2}, {0, 1}, {1, 2}, {0, 2}} {
		sc.founding = append(sc.founding, device(subs...))
	}
	seen := fleetFounded
	for w := 0; w < fleetWaves; w++ {
		novel := w%fleetEvery == fleetEvery-1
		var wave []*mat.Dense
		var present []int
		if novel {
			wave = []*mat.Dense{device(seen), device(seen, rng.Intn(seen))}
			present = []int{1, 2}
			seen++
		} else {
			pair := rng.Perm(seen)[:2]
			wave = []*mat.Dense{device(pair[0], pair[1]), device(rng.Intn(seen))}
			present = []int{2, 1}
		}
		sc.waves = append(sc.waves, wave)
		sc.novel = append(sc.novel, novel)
		sc.present = append(sc.present, present)
	}
	return sc
}

// fleetJoin is the fleet-join workload: scenarios played against a
// fleet.Controller over a fresh model store each. Its waves are a
// millisecond of small steps and store writes, whose speed does not
// follow the yardstick of clock.go, so it reports wall milliseconds.
type fleetJoin struct {
	workdir string
	rng     *rand.Rand
	reg     *obs.Registry
	local   core.LocalOptions
}

func setupFleetJoin(e *env) (instance, error) {
	f := &fleetJoin{
		workdir: e.workdir,
		rng:     e.rng(),
		reg:     obs.NewRegistry(),
		local:   core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
	}
	warm := &outcome{values: map[string]float64{}}
	if _, err := f.play(newScenario(f.rng), nil, warm, nil); err != nil {
		return nil, fmt.Errorf("warm-up scenario: %w", err)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up scenario: %v", warm.problems)
	}
	return f, nil
}

func (f *fleetJoin) close() error { return nil }

// played is one scenario's measurements.
type played struct {
	waveMS            []float64
	splice            []bool // wave i brought an unseen subspace
	acc               float64
	absorbed, spliced int
	versions          int
	blobBytes         int64
	lateClusters      int
}

// waveHook runs after each wave with the controller and the wave's
// result; traced runs use it to replay the wave's layers.
type waveHook func(devs []*mat.Dense, present []int, res fleet.JoinResult, ctl *fleet.Controller) error

// play runs one scenario in a fresh store: the founding round, then
// every wave, checking that absorb waves publish nothing and each
// splice wave publishes exactly one new version, and finally scores
// every device's points against the last model.
func (f *fleetJoin) play(sc *scenario, tr *obs.Tracer, out *outcome, hook waveHook) (p played, err error) {
	dir, err := os.MkdirTemp(f.workdir, "fleet-store-*")
	if err != nil {
		return p, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	st, err := store.Open(dir)
	if err != nil {
		return p, err
	}
	ctl, err := fleet.New(fleet.Config{L: fleetFounded, Local: f.local, Seed: sc.seed, Store: st, Obs: f.reg, Trace: tr})
	if err != nil {
		return p, err
	}
	_, v, err := ctl.Initial(sc.founding)
	if err != nil {
		return p, err
	}
	prev := v.Version
	for w, devs := range sc.waves {
		start := time.Now()
		res, err := ctl.Join(devs)
		p.waveMS = append(p.waveMS, ms(time.Since(start)))
		p.splice = append(p.splice, sc.novel[w])
		out.attempted++
		if err != nil {
			out.fail("wave %d: %v", w, err)
			continue
		}
		switch {
		case sc.novel[w] && (!res.Changed || res.Version.Version != prev+1):
			out.fail("splice wave %d published version %d after %d (changed %v); want exactly one new version", w, res.Version.Version, prev, res.Changed)
		case !sc.novel[w] && (res.Changed || res.Version.Version != prev):
			out.fail("absorb wave %d published version %d after %d; want none", w, res.Version.Version, prev)
		}
		prev = res.Version.Version
		p.absorbed += res.Absorbed
		p.spliced += res.Spliced
		for _, n := range sc.present[w] {
			p.lateClusters += n
		}
		if hook != nil {
			if err := hook(devs, sc.present[w], res, ctl); err != nil {
				return p, err
			}
		}
	}
	var truth, pred []int
	for i, x := range sc.all {
		labels, _, err := ctl.Assign(x)
		if err != nil {
			return p, err
		}
		truth = append(truth, sc.truth[i]...)
		pred = append(pred, labels...)
	}
	p.acc = metrics.Accuracy(truth, pred)
	p.versions = len(ctl.History())
	stats, err := st.Stats()
	if err != nil {
		return p, err
	}
	if stats.Blobs > 0 {
		p.blobBytes = stats.BlobBytes / int64(stats.Blobs)
	}
	return p, nil
}

func (f *fleetJoin) measure(b budget, out *outcome) error {
	var lat, absorb, splice, accs []float64
	for b.more(len(lat)) {
		p, err := f.play(newScenario(f.rng), nil, out, nil)
		if err != nil {
			return err
		}
		lat = append(lat, p.waveMS...)
		for i, ms := range p.waveMS {
			if p.splice[i] {
				splice = append(splice, ms)
			} else {
				absorb = append(absorb, ms)
			}
		}
		accs = append(accs, p.acc)
	}
	closedLoop(out, lat)
	out.note("absorb waves p50 %.3f ms, p90 %.3f ms; splice waves p50 %.3f ms",
		median(absorb), quantile(absorb, 0.9), median(splice))
	accuracy(out, accs, 90)
	return nil
}

// trace alternates untraced and traced scenarios. A traced scenario
// hands the controller the tracer, so its own join spans (Phase 1,
// scoring, delta solve) give the split of each wave; after each wave
// the benchmark replays every late device's Phase 1 kernel by kernel
// and, after a splice, the store writes and read of the new version on
// a scratch store.
func (f *fleetJoin) trace(b budget, tr *obs.Tracer, out *outcome) (err error) {
	k := newKernels()
	var mem memDelta
	var untraced, traced []float64
	var absorbed, spliced, late, waves, versions, scenarios, devReplays, devMatched, rMatch int
	var blobBytes float64
	scratch, err := os.MkdirTemp(f.workdir, "fleet-replay-*")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(scratch)) }()
	st, err := store.Open(scratch)
	if err != nil {
		return err
	}
	hook := func(devs []*mat.Dense, present []int, res fleet.JoinResult, ctl *fleet.Controller) error {
		rp := tr.Start("replay")
		defer rp.End()
		for i, x := range devs {
			seed := f.rng.Int63()
			ref := core.LocalClusterAndSample(x, f.local, rand.New(rand.NewSource(seed)))
			devReplays++
			if replayLocal(k, rp, x, f.local, seed, ref) {
				devMatched++
			}
			if ref.R() == present[i] {
				rMatch++
			}
		}
		if !res.Changed {
			return nil
		}
		m := ctl.Model()
		var digest string
		var err error
		k.time(rp, "store.put", func() { digest, err = st.PutTagged("fleet", m) })
		if err != nil {
			return err
		}
		k.time(rp, "store.tag", func() { err = st.Tag(res.Version.Tag, digest) })
		if err != nil {
			return err
		}
		k.time(rp, "store.get", func() { _, err = st.Get(digest) })
		return err
	}
	for b.more(len(traced)) {
		before := readMem()
		u, err := f.play(newScenario(f.rng), nil, out, nil)
		if err != nil {
			return err
		}
		mem.add(before, readMem(), len(u.waveMS))
		untraced = append(untraced, u.waveMS...)

		p, err := f.play(newScenario(f.rng), tr, out, hook)
		if err != nil {
			return err
		}
		traced = append(traced, p.waveMS...)
		absorbed += p.absorbed
		spliced += p.spliced
		late += p.lateClusters
		waves += len(p.waveMS)
		versions += p.versions
		blobBytes += float64(p.blobBytes)
		scenarios++
	}
	totals, err := totalsOf(tr)
	if err != nil {
		return err
	}
	join := totals.get("fleet.join")
	wall := join.durMS
	v := out.values
	v["core.phase1.pct"] = pct(totals.get("fleet.join/phase1.local").durMS, wall)
	v["fleet.score.pct"] = pct(totals.get("fleet.join/score.absorb").durMS, wall)
	v["core.phase2.pct"] = pct(totals.get("fleet.join/delta.solve").durMS, wall)
	v["fleet.publish.pct"] = pct(join.self, wall)
	v["store.pct"] = pct(totals.get("replay/store.put").durMS+totals.get("replay/store.tag").durMS+totals.get("replay/store.get").durMS, wall)
	if waves > 0 {
		v["fleet.absorbed"] = float64(absorbed) / float64(waves)
		v["fleet.spliced"] = float64(spliced) / float64(waves)
	}
	if late > 0 {
		v["fleet.absorb_ratio"] = float64(absorbed) / float64(late)
	}
	if scenarios > 0 {
		v["fleet.versions"] = float64(versions) / float64(scenarios)
		v["store.blob_bytes"] = blobBytes / float64(scenarios)
	}
	v["phase1.replay_match"] = matchShare(devMatched, devReplays)
	v["phase1.replays"] = float64(devReplays)
	if devReplays > 0 {
		v["core.phase1.r_match"] = float64(rMatch) / float64(devReplays)
	}
	k.fill(out, totals, join.count, wall)
	overhead(out, traced, untraced)
	mem.fill(out)
	if devMatched != devReplays {
		out.fail("phase 1 replays disagree: %d of %d devices matched", devMatched, devReplays)
	}
	return nil
}
