// Package core implements Fed-SC, the one-shot federated subspace
// clustering scheme of the paper (Algorithms 1 and 2).
//
// The scheme has three phases. In Phase 1 every client device clusters
// its local data with SSC, estimates the number of local clusters r⁽ᶻ⁾
// by the eigengap heuristic (or a configured upper bound), recovers an
// orthonormal basis of each local cluster's subspace by truncated SVD,
// and generates ONE random unit-norm sample per subspace (Eq. 5), which
// is all it uploads. In Phase 2 the central server clusters the pooled
// samples with SSC or TSC into L global clusters and returns each
// sample's assignment. In Phase 3 each device relabels its points by the
// global assignment of their local cluster.
//
// Only one communication round is used; the uplink carries
// n·q·Σr⁽ᶻ⁾ bits and the downlink Σr⁽ᶻ⁾·⌈log₂L⌉ bits (Section IV-E).
package core

import (
	"time"

	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/privacy"
	"fedsc/internal/sparse"
	"fedsc/internal/subspace"
)

// CentralMethod selects the server-side clustering algorithm.
type CentralMethod string

// The two server algorithms of the paper: Fed-SC (SSC) and Fed-SC (TSC).
const (
	CentralSSC CentralMethod = "ssc"
	CentralTSC CentralMethod = "tsc"
)

// LocalOptions configures Phase 1 (Algorithm 2) on each device.
type LocalOptions struct {
	// SSC tunes the local sparse self-expression step.
	SSC subspace.SSCOptions
	// RMax caps the number of local clusters. With UseEigengap it bounds
	// the eigengap search; without it, r⁽ᶻ⁾ = min(RMax, N⁽ᶻ⁾) exactly —
	// the "general upper bound" the paper uses for real-world data
	// (Remark 1). Zero means no cap.
	RMax int
	// UseEigengap selects eigengap estimation of r⁽ᶻ⁾ (Eq. 3). When
	// false, RMax must be positive and is used directly.
	UseEigengap bool
	// TargetDim forces the per-cluster subspace dimension d_t (the paper
	// uses d_t = 1 for the real-world datasets). Zero estimates d_t from
	// the cluster's numerical rank.
	TargetDim int
	// SamplesPerCluster is the number of random samples uploaded per
	// local cluster. The paper uploads exactly one (default); larger
	// values are the redundancy ablation.
	SamplesPerCluster int
}

func (o LocalOptions) withDefaults() LocalOptions {
	if o.SamplesPerCluster <= 0 {
		o.SamplesPerCluster = 1
	}
	if !o.UseEigengap && o.RMax <= 0 {
		// Without an explicit upper bound the eigengap heuristic is the
		// only sound way to pick r; fall back to it.
		o.UseEigengap = true
	}
	return o
}

// CentralOptions configures Phase 2 at the server.
type CentralOptions struct {
	// Method is CentralSSC (default) or CentralTSC.
	Method CentralMethod
	// SSC tunes the server-side SSC when Method is CentralSSC.
	SSC subspace.SSCOptions
	// Shards deals the pooled columns into this many shards, cutting a
	// permutation drawn from the round's rng so shard sizes differ by at
	// most one. The shards are solved concurrently and merged by
	// subspace affinity (see internal/core/shard.go). 0 or 1 runs the
	// exact single-pass solve, bit-identical to the pre-sharding
	// behavior. The count is clamped so every shard keeps at least L
	// columns.
	Shards int
	// SketchSize, when positive and below the ambient dimension,
	// row-compresses the pooled matrix to this many rows with a Gaussian
	// JL projection (mat.Sketch) before the solver runs. 0 disables
	// sketching.
	SketchSize int
}

// Options configures a full Fed-SC run.
type Options struct {
	Local   LocalOptions
	Central CentralOptions
	// NoiseDelta simulates communication noise (Fig. 7): each uploaded
	// sample is perturbed with iid Gaussian noise of variance
	// δ/√r⁽ᶻ⁾. Zero disables the channel noise.
	NoiseDelta float64
	// QuantBits is the per-float quantization assumed by the
	// communication-cost accounting (default 32). When ApplyQuantizer is
	// set, the uploads are actually passed through a QuantBits-bit
	// uniform quantizer, so the accounting's lossy channel is real.
	QuantBits      int
	ApplyQuantizer bool
	// DP, when non-nil, releases each uploaded sample through the
	// (ε, δ)-DP Gaussian mechanism (Remark 2 / the conclusion's
	// privacy-utility direction). Composition across a device's r⁽ᶻ⁾
	// releases is the caller's accounting concern (privacy.Compose).
	DP *privacy.Params
	// DistributedBases refines each exported global-cluster basis with
	// a distributed dominant SVD (internal/dsvd) over the devices' own
	// columns assigned to that cluster: every round only the n×k
	// projected iterate leaves a device, never raw columns, yet the
	// refined basis sees all of the cluster's points instead of just
	// the uploaded Phase 1 samples. False keeps the sample-only
	// estimate.
	DistributedBases bool
	// Obs receives the round metrics (per-phase latencies, pooled
	// sample counts, uplink/downlink bits); nil publishes to the
	// process-wide obs.Default registry.
	Obs *obs.Registry
	// Trace, when non-nil, records the round's phase tree — per-device
	// local clustering/sampling, the upload release path, central
	// clustering, relabeling — as obs spans. Nil disables tracing at
	// the cost of one pointer check per phase.
	Trace *obs.Tracer
}

// reg resolves the metrics destination.
func (o Options) reg() *obs.Registry {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

func (o Options) withDefaults() Options {
	o.Local = o.Local.withDefaults()
	if o.Central.Method == "" {
		o.Central.Method = CentralSSC
	}
	if o.QuantBits <= 0 {
		o.QuantBits = 32
	}
	return o
}

// LocalResult is the outcome of Algorithm 2 on one device.
type LocalResult struct {
	// Partitions[t] lists the local point indices of cluster t.
	Partitions [][]int
	// Samples is the n x (r·SamplesPerCluster) matrix of generated
	// samples, grouped by local cluster.
	Samples *mat.Dense
	// Dims[t] is the estimated dimension d_t of local cluster t.
	Dims []int
	// Bases[t] is the orthonormal n x Dims[t] basis of local cluster t
	// that its samples were drawn from: the truncated SVD of the
	// cluster's member columns.
	Bases []*mat.Dense
	// Elapsed is the wall time Phase 1 took on this device.
	Elapsed time.Duration
}

// R returns the number of local clusters r⁽ᶻ⁾.
func (lr LocalResult) R() int { return len(lr.Partitions) }

// Relabel is the Phase 3 local update on one device: local cluster t
// takes the majority server label over its spc samples' assignments,
// and each of the device's points inherits its cluster's label. It
// returns the per-point labels and the per-cluster labels τ⁽ᶻ⁾.
func (lr LocalResult) Relabel(assignments []int, spc, points int) (labels, clusterLabels []int) {
	labels = make([]int, points)
	clusterLabels = make([]int, lr.R())
	for t, idx := range lr.Partitions {
		best := Vote(assignments[t*spc : (t+1)*spc])
		clusterLabels[t] = best
		for _, i := range idx {
			labels[i] = best
		}
	}
	return labels, clusterLabels
}

// Vote is the majority vote that turns a local cluster's sample labels
// into the cluster's one label: the most frequent label wins, and the
// lowest label wins a tie, so the outcome never depends on iteration
// order. An empty vote returns 0.
func Vote(labels []int) int {
	best, bestN := 0, -1
	for i, lab := range labels {
		// Counting from the first occurrence onwards sees every copy;
		// later occurrences count fewer and never win.
		n := 0
		for _, other := range labels[i:] {
			if other == lab {
				n++
			}
		}
		if n > bestN || (n == bestN && lab < best) {
			best, bestN = lab, n
		}
	}
	return best
}

// Result is the outcome of a full Fed-SC run.
type Result struct {
	// Labels[z][i] is the global cluster in [0, L) of point i on device z.
	Labels [][]int
	// SampleLabels[z][t] is the server's assignment τ_t⁽ᶻ⁾ of local
	// cluster t on device z.
	SampleLabels [][]int
	// RPerDevice records r⁽ᶻ⁾ for every device.
	RPerDevice []int
	// UplinkBits and DownlinkBits follow the accounting of Section IV-E.
	UplinkBits, DownlinkBits int64
	// LocalTime[z] is the Phase 1 wall time on device z; CentralTime is
	// the Phase 2 (server) wall time. SequentialTime sums all of them;
	// ParallelTime assumes devices run concurrently.
	LocalTime      []time.Duration
	CentralTime    time.Duration
	SequentialTime time.Duration
	ParallelTime   time.Duration
	// CentralAffinity is the server-side affinity graph over the pooled
	// samples (useful for diagnostics and the connectivity ablation).
	CentralAffinity *sparse.CSR
	// Locals retains each device's Phase 1 output (partitions, samples,
	// dimensions); the experiment harness uses it to build the induced
	// global affinity graph for the CONN metric of Section VI.
	Locals []LocalResult
	// GlobalBases[g] is an orthonormal basis of global cluster g's
	// subspace, estimated by truncated SVD over the pooled samples the
	// server assigned to g; GlobalDims[g] is its dimension. These are
	// what the serving tier (internal/serve) scores new points against
	// by minimum projection residual.
	GlobalBases []*mat.Dense
	GlobalDims  []int
}
