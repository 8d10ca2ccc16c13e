package core

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/sparse"
	"fedsc/internal/subspace"
)

// Sharded, optionally sketched Phase 2. The exact central pass runs one
// SSC/TSC over all Z pooled samples, whose spectral segmentation alone
// is O(Z³) — the bottleneck that caps how many devices one round can
// absorb. This file breaks it in two independent, composable ways:
//
//   - Sketch: compress the ambient dimension n of the pooled matrix to
//     SketchSize rows with a JL projection (mat.Sketch) before any
//     solver runs. Column inner products — all SSC/TSC consume — are
//     preserved, so labels are unchanged up to JL distortion.
//   - Shards: deal the pooled columns into Shards disjoint
//     sub-problems, solve each into l clusters concurrently (per-shard
//     rngs derived from the caller's rng before any goroutine starts,
//     so the result is deterministic under any scheduling), then stitch
//     the shard clusterings together by subspace affinity: each shard
//     cluster's estimated basis is matched against the reference
//     shard's bases via principal angles, one-to-one per shard
//     (Hungarian assignment on mean squared canonical cosines).
//
// The deal is a seeded random permutation, not a contiguous split and
// not a fixed stride. Pooled columns arrive with structure — grouped by
// device, and within a device grouped by local cluster — so a
// contiguous split can hand a shard only a few global clusters, and any
// deterministic stride can alias with a periodic upload pattern and do
// the same (a stride equal to the device count hands shard k only
// device k's clusters). A permutation drawn from the caller's rng keeps
// every shard an unbiased sample of the whole pool regardless of how
// the uploads were ordered, while staying a pure function of the seed.

// effectiveShards clamps the configured shard count so every shard
// keeps at least l columns (a shard with fewer columns than target
// clusters degenerates to singleton labels and merges as noise).
func effectiveShards(shards, cols, l int) int {
	if shards <= 1 {
		return 1
	}
	if l < 1 {
		l = 1
	}
	if maxByCols := cols / l; shards > maxByCols {
		shards = maxByCols
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// centralSolve runs one exact SSC/TSC pass — the original unsharded
// Phase 2 body. q-rule state (z devices) is threaded unchanged so a
// sharded solve applies the same federated neighbor count as the exact
// path would.
func centralSolve(theta *mat.Dense, z, l int, opts CentralOptions, rng *rand.Rand) subspace.Result {
	switch opts.Method {
	case CentralSSC:
		return subspace.SSC(theta, l, rng, opts.SSC)
	case CentralTSC:
		q := max(3, (z+l-1)/l) // max(3, ⌈Z/L⌉)
		return subspace.TSC(theta, l, rng, subspace.TSCOptions{Q: q})
	default:
		panic("core: unknown central method " + string(opts.Method))
	}
}

// centralCluster is Phase 2 under an (optional) parent span and metrics
// registry; opts.Method must be resolved. It dispatches between the
// exact single-pass solve and the sharded/sketched pipeline.
func centralCluster(parent *obs.Span, reg *obs.Registry, theta *mat.Dense, z, l int, opts CentralOptions, rng *rand.Rand) subspace.Result {
	shards := effectiveShards(opts.Shards, theta.Cols(), l)
	sketch := opts.SketchSize > 0 && opts.SketchSize < theta.Rows()
	if shards <= 1 && !sketch {
		// Exact today-path: same calls, same rng consumption,
		// bit-identical labels.
		return centralSolve(theta, z, l, opts, rng)
	}
	work := theta
	if sketch {
		sp := parent.Start("phase2.sketch",
			obs.Int("rows", theta.Rows()), obs.Int("sketch", opts.SketchSize))
		work = mat.Sketch(theta, opts.SketchSize, rng)
		sp.End()
	}
	if shards <= 1 {
		res := centralSolve(work, z, l, opts, rng)
		return res
	}
	return shardedCluster(parent, reg, work, z, l, shards, opts, rng)
}

// shardedCluster deals the columns of work into shards sub-problems,
// solves them concurrently and merges the shard labelings.
func shardedCluster(parent *obs.Span, reg *obs.Registry, work *mat.Dense, z, l, shards int, opts CentralOptions, rng *rand.Rand) subspace.Result {
	total := work.Cols()
	// Seeded random deal (see the package comment above): a permutation
	// of the columns, cut round-robin so shard sizes differ by at most
	// one. Each shard's own list is sorted back to ascending column
	// order so the sub-problem a shard sees is independent of how the
	// permutation happened to be drawn.
	perm := rng.Perm(total)
	cols := make([][]int, shards)
	for j, p := range perm {
		k := j % shards
		cols[k] = append(cols[k], p)
	}
	for k := range cols {
		sort.Ints(cols[k])
	}
	// Derive every shard's seed before any goroutine starts so the
	// result never depends on scheduling.
	seeds := make([]int64, shards)
	for k := range seeds {
		seeds[k] = rng.Int63()
	}
	results := make([]subspace.Result, shards)
	elapsed := make([]time.Duration, shards)
	span := parent.Start("phase2.shards", obs.Int("shards", shards))
	mat.Parallel(shards, 1<<30, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ss := span.Start("phase2.shard", obs.Int("shard", k), obs.Int("samples", len(cols[k])))
			start := time.Now()
			sub := work.SelectCols(cols[k])
			results[k] = centralSolve(sub, z, l, opts, rand.New(rand.NewSource(seeds[k])))
			elapsed[k] = time.Since(start)
			ss.SetAttr("ms", strconv.FormatInt(elapsed[k].Milliseconds(), 10))
			ss.End()
		}
	})
	span.End()
	// Histograms are observed after the join, in shard order, so the
	// registry's float accumulators see a schedule-independent sequence.
	shardSeconds := reg.Histogram("fedsc_core_central_shard_seconds",
		"Per-shard Phase 2 solve wall time.", []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60})
	shardSamples := reg.Histogram("fedsc_core_central_shard_samples",
		"Pooled samples per Phase 2 shard.", []float64{1, 4, 16, 64, 256, 1024, 4096})
	for k := 0; k < shards; k++ {
		shardSeconds.Observe(elapsed[k].Seconds())
		shardSamples.Observe(float64(len(cols[k])))
	}
	merge := parent.Start("phase2.merge")
	labels := mergeShardLabels(work, cols, results, l, opts)
	merge.End()
	return subspace.Result{Labels: labels, Affinity: stitchAffinity(total, cols, results)}
}

// mergeShardLabels aligns every shard's clustering with shard 0's and
// scatters the aligned labels back to global column order. Alignment is
// by subspace affinity: each shard cluster's orthonormal basis
// (estimated exactly like a device's local cluster basis) is compared
// against every reference cluster's basis through its principal angles,
// and the Hungarian assignment on mean squared canonical cosines picks
// the one-to-one matching of maximum total affinity.
func mergeShardLabels(work *mat.Dense, cols [][]int, results []subspace.Result, l int, opts CentralOptions) []int {
	total := work.Cols()
	out := make([]int, total)
	bases := make([][]*mat.Dense, len(results))
	for k := range results {
		bases[k] = shardBases(work, cols[k], results[k].Labels, l)
	}
	for k, res := range results {
		match := identityMatch(l)
		if k > 0 {
			match = matchClusters(bases[k], bases[0], l)
		}
		for i, lab := range res.Labels {
			out[cols[k][i]] = match[lab]
		}
	}
	return out
}

// shardBases estimates an orthonormal basis for each of a shard's l
// clusters from the (possibly sketched) pooled columns it labeled.
// Clusters that received no columns get a 0-column basis, which has
// zero affinity to everything.
func shardBases(work *mat.Dense, cols []int, labels []int, l int) []*mat.Dense {
	members := make([][]int, l)
	for i, lab := range labels {
		if lab >= 0 && lab < l {
			members[lab] = append(members[lab], cols[i])
		}
	}
	out := make([]*mat.Dense, l)
	for c := 0; c < l; c++ {
		if len(members[c]) == 0 {
			out[c] = mat.NewDense(work.Rows(), 0)
			continue
		}
		sub := work.SelectCols(members[c])
		basis, _ := clusterBasis(sub, 0)
		out[c] = basis
	}
	return out
}

// basisAffinity scores two orthonormal bases by the mean squared cosine
// of their principal angles: 1 for identical subspaces, ~d/n for two
// random d-dim subspaces of Rⁿ, 0 when either basis is empty. The
// cosines are the singular values of UᵀV.
func basisAffinity(u, v *mat.Dense) float64 {
	du, dv := u.Cols(), v.Cols()
	if du == 0 || dv == 0 {
		return 0
	}
	s := mat.SingularValues(mat.MulTA(u, v))
	sum := 0.0
	for _, c := range s {
		if c > 1 {
			c = 1 // rounding can push a cosine past 1
		}
		sum += c * c
	}
	d := du
	if dv < d {
		d = dv
	}
	return sum / float64(d)
}

// matchClusters returns, for every cluster of the from shard, the
// reference cluster it is identified with: the Hungarian assignment
// minimizing total (1 − affinity), i.e. maximizing total subspace
// affinity. Both sides always carry exactly l slots (empty clusters
// have 0-column bases), so the matching is a bijection on [0, l).
func matchClusters(from, ref []*mat.Dense, l int) []int {
	cost := make([][]float64, l)
	for c := 0; c < l; c++ {
		cost[c] = make([]float64, l)
		for g := 0; g < l; g++ {
			cost[c][g] = 1 - basisAffinity(from[c], ref[g])
		}
	}
	return metrics.Hungarian(cost)
}

func identityMatch(l int) []int {
	m := make([]int, l)
	for i := range m {
		m[i] = i
	}
	return m
}

// stitchAffinity reassembles the per-shard affinity graphs into one
// global graph over all pooled columns. Cross-shard edges do not exist
// (shards never compared their columns), so the result is a
// permutation-block-diagonal matrix — still useful for the CONN
// diagnostics, which only consume within-cluster connectivity.
func stitchAffinity(total int, cols [][]int, results []subspace.Result) *sparse.CSR {
	var entries []sparse.Coord
	for k, res := range results {
		if res.Affinity == nil {
			continue
		}
		n, _ := res.Affinity.Dims()
		for i := 0; i < n; i++ {
			gi := cols[k][i]
			res.Affinity.Row(i, func(j int, v float64) {
				entries = append(entries, sparse.Coord{Row: gi, Col: cols[k][j], Val: v})
			})
		}
	}
	return sparse.NewCSR(total, total, entries)
}
