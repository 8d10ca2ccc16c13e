package experiments

import (
	"math/rand"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/kfed"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/sparse"
	"fedsc/internal/subspace"
	"fedsc/internal/synth"
)

// Instance is one federated clustering problem: per-device data with
// ground truth.
type Instance struct {
	// Devices holds each device's local data (columns = points).
	Devices []*mat.Dense
	// Truth[z] are the ground-truth labels of device z's points.
	Truth [][]int
	// L is the number of global clusters.
	L int
	// MaxLPrime is max_z L⁽ᶻ⁾, used as the k-FED local cluster count and
	// the Fed-SC real-data r⁽ᶻ⁾ upper bound.
	MaxLPrime int
}

// FlatTruth concatenates the per-device ground truth in device order,
// matching core.FlattenLabels.
func (in Instance) FlatTruth() []int { return core.FlattenLabels(in.Truth) }

// TotalPoints counts points across devices.
func (in Instance) TotalPoints() int {
	n := 0
	for _, t := range in.Truth {
		n += len(t)
	}
	return n
}

// Pooled concatenates all device data into one matrix with aligned
// labels, the input the centralized baselines see.
func (in Instance) Pooled() (*mat.Dense, []int) {
	return mat.HStack(in.Devices...), in.FlatTruth()
}

// syntheticInstance builds the synthetic federated setting of Section
// VI-A: z devices, each holding pointsPerDevice unit-norm points drawn
// from lPrime of the l random d-dimensional subspaces of R^n
// (lPrime = l reproduces the IID partition).
func syntheticInstance(n, d, l, z, lPrime, pointsPerDevice int, rng *rand.Rand) Instance {
	s := synth.RandomSubspaces(n, d, l, rng)
	inst := Instance{Devices: make([]*mat.Dense, z), Truth: make([][]int, z), L: l, MaxLPrime: lPrime}
	for dev := 0; dev < z; dev++ {
		clusters := rng.Perm(l)[:lPrime]
		counts := make([]int, l)
		for k := 0; k < pointsPerDevice; k++ {
			counts[clusters[k%lPrime]]++
		}
		ds := s.SampleCounts(counts, rng)
		inst.Devices[dev] = ds.X
		inst.Truth[dev] = ds.Labels
	}
	return inst
}

// datasetInstance splits a labeled dataset over z devices with the
// Non-IID range partition (each device sees lpMin..lpMax clusters).
func datasetInstance(ds synth.Dataset, l, z, lpMin, lpMax int, rng *rand.Rand) Instance {
	p := synth.PartitionNonIIDRange(ds.Labels, l, z, lpMin, lpMax, rng)
	inst := Instance{Devices: make([]*mat.Dense, z), Truth: make([][]int, z), L: l}
	for dev := 0; dev < z; dev++ {
		sub := ds.Select(p.Points[dev])
		inst.Devices[dev] = sub.X
		inst.Truth[dev] = sub.Labels
	}
	for _, c := range p.ClustersPerDevice(ds.Labels) {
		if c > inst.MaxLPrime {
			inst.MaxLPrime = c
		}
	}
	return inst
}

// Eval bundles the metrics reported across the evaluation section.
type Eval struct {
	ACC, NMI  float64
	ConnMin   float64
	ConnAvg   float64
	HasConn   bool
	Seconds   float64 // sequential running time (Σ_z T⁽ᶻ⁾ + T_c for federated)
	Result    core.Result
	SubResult subspace.Result
}

// runFedSC executes Fed-SC on the instance with the given central method
// and returns its metrics. realData selects the paper's real-world
// configuration (r⁽ᶻ⁾ upper bound + d_t = 1) instead of the eigengap.
// Connectivity (an expensive diagnostic over the induced global graph)
// is only computed when withConn is set; Eval.HasConn reports it.
func runFedSC(inst Instance, method core.CentralMethod, noiseDelta float64, realData bool, rmax int, withConn bool, rng *rand.Rand) Eval {
	opts := core.Options{
		Central:    core.CentralOptions{Method: method},
		NoiseDelta: noiseDelta,
	}
	if realData {
		r := rmax
		if r <= 0 {
			r = inst.MaxLPrime
		}
		opts.Local = core.LocalOptions{RMax: r, UseEigengap: false, TargetDim: 1}
	} else {
		r := rmax
		if r <= 0 {
			// No device can hold more than L clusters; bounding the
			// eigengap search there keeps the local eigensolver from
			// chasing the full spectrum on large devices.
			r = inst.L + 5
		}
		opts.Local = core.LocalOptions{UseEigengap: true, RMax: r}
	}
	res := core.Run(inst.Devices, inst.L, opts, rng)
	truth := inst.FlatTruth()
	pred := core.FlattenLabels(res.Labels)
	ev := Eval{
		ACC:     metrics.Accuracy(truth, pred),
		NMI:     metrics.NMI(truth, pred),
		Seconds: res.SequentialTime.Seconds(),
		Result:  res,
	}
	if withConn {
		w := InducedGlobalAffinity(inst, res)
		ev.ConnMin, ev.ConnAvg = metrics.Connectivity(w, truth, rng)
		ev.HasConn = true
	}
	return ev
}

// runFedSCPair evaluates Fed-SC with BOTH central methods over one shared
// Phase 1: local clustering dominates the cost and is identical for the
// two variants, so the harness runs it once and aggregates twice.
func runFedSCPair(inst Instance, rmax int, rng *rand.Rand) (ssc, tsc Eval) {
	r := rmax
	if r <= 0 {
		r = inst.L + 5
	}
	local := core.LocalOptions{UseEigengap: true, RMax: r}
	locals := core.LocalPhase(nil, inst.Devices, local, rng)
	truth := inst.FlatTruth()
	eval := func(method core.CentralMethod) Eval {
		res := core.Aggregate(inst.Devices, locals, inst.L, core.Options{
			Local:   local,
			Central: core.CentralOptions{Method: method},
		}, rng)
		pred := core.FlattenLabels(res.Labels)
		ev := Eval{
			ACC:     metrics.Accuracy(truth, pred),
			NMI:     metrics.NMI(truth, pred),
			Seconds: res.SequentialTime.Seconds(),
			Result:  res,
		}
		w := InducedGlobalAffinity(inst, res)
		ev.ConnMin, ev.ConnAvg = metrics.Connectivity(w, truth, rng)
		ev.HasConn = true
		return ev
	}
	return eval(core.CentralSSC), eval(core.CentralTSC)
}

// runKFED executes the k-FED baseline (optionally with local PCA).
func runKFED(inst Instance, pcaDim int, rng *rand.Rand) Eval {
	start := time.Now()
	res := kfed.Run(inst.Devices, inst.L, rng, kfed.Options{KLocal: inst.MaxLPrime, PCADim: pcaDim})
	secs := time.Since(start).Seconds()
	truth := inst.FlatTruth()
	pred := core.FlattenLabels(res.Labels)
	return Eval{
		ACC:     metrics.Accuracy(truth, pred),
		NMI:     metrics.NMI(truth, pred),
		Seconds: secs,
	}
}

// runCentral executes a centralized SC baseline on the pooled data.
func runCentral(method subspace.Method, x *mat.Dense, truth []int, l int, rng *rand.Rand) Eval {
	start := time.Now()
	res := subspace.Cluster(method, x, l, rng)
	secs := time.Since(start).Seconds()
	connMin, connAvg := metrics.Connectivity(res.Affinity, truth, rng)
	return Eval{
		ACC:       metrics.Accuracy(truth, res.Labels),
		NMI:       metrics.NMI(truth, res.Labels),
		ConnMin:   connMin,
		ConnAvg:   connAvg,
		HasConn:   true,
		Seconds:   secs,
		SubResult: res,
	}
}

// InducedGlobalAffinity lifts the server-side affinity over samples back
// to an affinity over ALL data points (Section IV-E, "Connectivity of
// affinity graph"): within each local cluster the points are connected
// (star topology around the cluster's first point keeps the graph
// sparse), and the cluster representatives inherit the sample-to-sample
// affinities computed at the server.
func InducedGlobalAffinity(inst Instance, res core.Result) *sparse.CSR {
	// Global index offsets per device.
	offsets := make([]int, len(inst.Devices))
	total := 0
	for dev, x := range inst.Devices {
		offsets[dev] = total
		total += x.Cols()
	}
	// Representative point of each sample group, in the pooled sample
	// order the central affinity uses.
	var reps []int
	spc := 1
	for dev, lr := range res.Locals {
		if lr.R() > 0 && lr.Samples.Cols() > 0 {
			spc = lr.Samples.Cols() / lr.R()
		}
		for _, part := range lr.Partitions {
			rep := offsets[dev] + part[0]
			for s := 0; s < spc; s++ {
				reps = append(reps, rep)
			}
		}
	}
	var entries []sparse.Coord
	// Intra-cluster stars.
	for dev, lr := range res.Locals {
		for _, part := range lr.Partitions {
			rep := offsets[dev] + part[0]
			for _, i := range part[1:] {
				gi := offsets[dev] + i
				entries = append(entries,
					sparse.Coord{Row: rep, Col: gi, Val: 1},
					sparse.Coord{Row: gi, Col: rep, Val: 1})
			}
		}
	}
	// Server affinities between representatives.
	if res.CentralAffinity != nil {
		n, _ := res.CentralAffinity.Dims()
		for i := 0; i < n && i < len(reps); i++ {
			res.CentralAffinity.Row(i, func(j int, v float64) {
				if j >= len(reps) || reps[i] == reps[j] {
					return
				}
				entries = append(entries, sparse.Coord{Row: reps[i], Col: reps[j], Val: v})
			})
		}
	}
	return sparse.NewCSR(total, total, entries)
}
