package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"fedsc/internal/dsvd"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/privacy"
	"fedsc/internal/subspace"
)

// Run executes the full Fed-SC scheme (Algorithm 1) over the devices'
// local data matrices (columns = points), clustering everything into l
// global clusters. Phase 1 runs concurrently across devices with
// per-device RNGs derived from rng, so results are deterministic for a
// given seed regardless of scheduling.
func Run(devices []*mat.Dense, l int, opts Options, rng *rand.Rand) Result {
	opts = opts.withDefaults()
	z := len(devices)
	root := opts.Trace.Start("fedsc.round", obs.Int("devices", z), obs.Int("L", l))
	defer root.End()
	locals := LocalPhase(root, devices, opts.Local, rng)
	// Upload path: DP release, then quantization, then channel noise —
	// the order a real deployment would apply them in.
	release := root.Start("upload.release")
	if opts.DP != nil {
		for dev := range locals {
			if _, err := privacy.GaussianMechanism(locals[dev].Samples, *opts.DP, rng); err != nil {
				panic("core: " + err.Error())
			}
		}
	}
	if opts.ApplyQuantizer {
		q := privacy.Quantizer{Bits: opts.QuantBits}
		for dev := range locals {
			if _, err := q.Apply(locals[dev].Samples); err != nil {
				panic("core: " + err.Error())
			}
		}
	}
	if opts.NoiseDelta > 0 {
		for dev := range locals {
			addChannelNoise(locals[dev].Samples, locals[dev].R(), opts.NoiseDelta, rng)
		}
	}
	release.End()
	return aggregate(root, devices, locals, l, opts, rng)
}

// LocalPhase is Phase 1 on every device: Algorithm 2 runs concurrently
// across devices, each under its own seed. The seeds are drawn from rng
// in device order before any device starts, so the result is a pure
// function of rng's state however the devices are scheduled. The phase
// is traced as a phase1.local span under parent with one device.local
// child per device.
func LocalPhase(parent *obs.Span, devices []*mat.Dense, opts LocalOptions, rng *rand.Rand) []LocalResult {
	span := parent.Start("phase1.local")
	defer span.End()
	locals := make([]LocalResult, len(devices))
	seeds := make([]int64, len(devices))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	mat.Parallel(len(devices), 1<<30, func(lo, hi int) {
		for dev := lo; dev < hi; dev++ {
			ds := span.Start("device.local", obs.Int("device", dev))
			locals[dev] = LocalClusterAndSample(devices[dev], opts, rand.New(rand.NewSource(seeds[dev])))
			ds.SetAttr("r", strconv.Itoa(locals[dev].R()))
			ds.End()
		}
	})
	return locals
}

// Aggregate performs Phases 2 and 3 given every device's Phase 1 output:
// the server clusters the pooled samples and each device relabels its
// points by its local clusters' global assignments. It is split out from
// Run so transports (package fednet) can ship LocalResults over a real
// network between the phases.
func Aggregate(devices []*mat.Dense, locals []LocalResult, l int, opts Options, rng *rand.Rand) Result {
	opts = opts.withDefaults()
	root := opts.Trace.Start("fedsc.aggregate", obs.Int("devices", len(devices)), obs.Int("L", l))
	defer root.End()
	return aggregate(root, devices, locals, l, opts, rng)
}

// aggregate is Phases 2 and 3 under an already-opened parent span;
// opts must have defaults applied.
func aggregate(parent *obs.Span, devices []*mat.Dense, locals []LocalResult, l int, opts Options, rng *rand.Rand) Result {
	z := len(devices)
	// The pooled clustering and the Section IV-E accounting both assume
	// one shared ambient space; a device that disagrees would silently
	// corrupt the uplink arithmetic below, so fail loudly instead.
	if z > 0 {
		n0 := devices[0].Rows()
		for dev := 1; dev < z; dev++ {
			if devices[dev].Rows() != n0 {
				panic(fmt.Sprintf("core: device %d has ambient dimension %d but device 0 has %d; all devices must share one ambient space",
					dev, devices[dev].Rows(), n0))
			}
		}
	}
	spc := opts.Local.SamplesPerCluster
	// Pool all samples, remembering per-device offsets.
	matrices := make([]*mat.Dense, z)
	offsets := make([]int, z)
	total := 0
	for dev, lr := range locals {
		matrices[dev] = lr.Samples
		offsets[dev] = total
		total += lr.Samples.Cols()
	}
	theta := mat.HStack(matrices...)
	// Phase 2: central clustering of the pooled samples (sharded and/or
	// sketched when opts.Central asks for it; exact otherwise).
	phase2 := parent.Start("phase2.central", obs.Int("samples", total))
	centralStart := time.Now()
	central := centralCluster(phase2, opts.reg(), theta, z, l, opts.Central, rng)
	centralTime := time.Since(centralStart)
	phase2.End()
	phase3 := parent.Start("phase3.relabel")
	// Phase 3: local update — every point inherits the global label of
	// its local cluster. With SamplesPerCluster > 1 the cluster label is
	// the majority vote over its samples.
	res := Result{
		Labels:       make([][]int, z),
		SampleLabels: make([][]int, z),
		RPerDevice:   make([]int, z),
		LocalTime:    make([]time.Duration, z),
		CentralTime:  centralTime,
	}
	sumR := 0
	for dev, lr := range locals {
		r := lr.R()
		res.RPerDevice[dev] = r
		res.LocalTime[dev] = lr.Elapsed
		sumR += r
		res.Labels[dev], res.SampleLabels[dev] = lr.Relabel(central.Labels[offsets[dev]:], spc, devices[dev].Cols())
	}
	phase3.End()
	// Communication accounting (Section IV-E). The shared ambient
	// dimension was validated on entry.
	n := 0
	if z > 0 {
		n = devices[0].Rows()
	}
	logL := bitsFor(l)
	res.UplinkBits = int64(n) * int64(opts.QuantBits) * int64(sumR*spc)
	res.DownlinkBits = int64(sumR*spc) * int64(logL)
	// Timing summary.
	var sum, maxLocal time.Duration
	for _, d := range res.LocalTime {
		sum += d
		if d > maxLocal {
			maxLocal = d
		}
	}
	res.SequentialTime = sum + centralTime
	res.ParallelTime = maxLocal + centralTime
	res.CentralAffinity = central.Affinity
	res.Locals = locals
	// Out-of-sample support: estimate each global cluster's subspace
	// basis from the pooled samples it received. The pooled matrix is
	// tiny (Σr⁽ᶻ⁾ columns), so this costs a vanishing fraction of
	// Phase 2 and makes every Result directly servable.
	export := parent.Start("export.bases")
	res.GlobalBases, res.GlobalDims = GlobalBases(theta, central.Labels, l, opts.Local.TargetDim)
	export.End()
	if opts.DistributedBases {
		refine := parent.Start("export.refine", obs.Int("clusters", l))
		members := make([][][]int, l)
		for g := range members {
			members[g] = make([][]int, z)
		}
		for dev, labels := range res.Labels {
			for i, g := range labels {
				members[g][dev] = append(members[g][dev], i)
			}
		}
		RefineBases(devices, members, res.GlobalBases, dsvd.Options{Obs: opts.Obs, Trace: opts.Trace}, rng)
		refine.End()
	}
	publishRound(opts.reg(), res, total)
	return res
}

// RefineBases re-estimates cluster bases by a distributed dominant SVD
// (internal/dsvd) over the devices' raw member columns: members[g][z]
// lists device z's columns in cluster g, in the order they enter the
// device's block. Per iteration a device contributes only its n×k
// projection of the shared iterate, so the refined basis is fit to
// every point of the cluster while no raw column leaves its device.
// bases[g] is replaced in place, with k its column count capped by the
// member count; a cluster without members or with an empty basis keeps
// its basis. Per-cluster seeds are drawn from rng up front, so the rng
// stream does not depend on which clusters are skipped. opts supplies
// everything but K and Seed.
func RefineBases(devices []*mat.Dense, members [][][]int, bases []*mat.Dense, opts dsvd.Options, rng *rand.Rand) {
	seeds := make([]int64, len(bases))
	for g := range seeds {
		seeds[g] = rng.Int63()
	}
	for g := range bases {
		blocks := make([]*mat.Dense, len(devices))
		total := 0
		for z, dev := range devices {
			blocks[z] = dev.SelectCols(members[g][z])
			total += len(members[g][z])
		}
		opts.K = min(bases[g].Cols(), total)
		if opts.K <= 0 {
			continue
		}
		opts.Seed = seeds[g]
		refined, err := dsvd.Run(blocks, opts)
		if err != nil {
			continue // no devices at all: keep the current basis
		}
		bases[g] = refined.U
	}
}

// publishRound pushes one round's phase latencies and volumes into the
// metrics registry — the per-phase numbers that used to exist only as
// ad-hoc fields on Result.
func publishRound(reg *obs.Registry, res Result, pooled int) {
	phaseBounds := []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60}
	reg.Counter("fedsc_core_rounds_total", "Fed-SC aggregation rounds completed.").Inc()
	local := reg.Histogram("fedsc_core_local_seconds", "Per-device Phase 1 (local cluster + sample) wall time.", phaseBounds)
	clusters := reg.Histogram("fedsc_core_local_clusters", "Local clusters r per device.",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	for dev, d := range res.LocalTime {
		local.Observe(d.Seconds())
		clusters.Observe(float64(res.RPerDevice[dev]))
	}
	reg.Histogram("fedsc_core_central_seconds", "Phase 2 (central clustering) wall time.", phaseBounds).
		Observe(res.CentralTime.Seconds())
	reg.Histogram("fedsc_core_round_seconds", "Critical-path round wall time (slowest device + central).", phaseBounds).
		Observe(res.ParallelTime.Seconds())
	reg.Histogram("fedsc_core_pooled_samples", "Samples pooled at the server per round.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096}).Observe(float64(pooled))
	reg.Counter("fedsc_core_uplink_bits_total", "Uplink volume per the Section IV-E accounting.").Add(res.UplinkBits)
	reg.Counter("fedsc_core_downlink_bits_total", "Downlink volume per the Section IV-E accounting.").Add(res.DownlinkBits)
}

// CentralCluster runs Phase 2 at the server: it clusters the pooled
// sample matrix theta (columns = samples from z devices) into l global
// clusters with the configured method. For TSC the paper's federated
// neighbor rule q = max(3, ⌈Z/L⌉) applies.
// With opts.Shards > 1 and/or opts.SketchSize > 0 the sharded/sketched
// pipeline of shard.go runs instead of the exact single pass.
func CentralCluster(theta *mat.Dense, z, l int, opts CentralOptions, rng *rand.Rand) subspace.Result {
	if opts.Method == "" {
		opts.Method = CentralSSC
	}
	return centralCluster(nil, nil, theta, z, l, opts, rng)
}

// addChannelNoise perturbs every sample column with iid Gaussian noise
// whose total (per-vector) variance is δ/√r — the model of Fig. 7. The
// paper states "variance δ/√r⁽ᶻ⁾" without fixing whether it is per
// coordinate or per vector; per vector keeps the noise-to-signal ratio
// of the unit-norm samples independent of the ambient dimension, which
// is the only reading under which the robustness the figure reports is
// achievable at all, so that is what we implement (per-coordinate
// variance δ/(√r·n)).
func addChannelNoise(samples *mat.Dense, r int, delta float64, rng *rand.Rand) {
	n := samples.Rows()
	if r == 0 || n == 0 {
		return
	}
	std := math.Sqrt(delta / math.Sqrt(float64(r)) / float64(n))
	data := samples.Data()
	for i := range data {
		data[i] += std * rng.NormFloat64()
	}
}

// bitsFor returns ⌈log₂ l⌉, at least 1.
func bitsFor(l int) int {
	b := 1
	for 1<<b < l {
		b++
	}
	return b
}

// FlattenLabels concatenates per-device labels in device order; combined
// with a partition's Points lists this reconstructs global labels.
func FlattenLabels(labels [][]int) []int {
	var out []int
	for _, l := range labels {
		out = append(out, l...)
	}
	return out
}
