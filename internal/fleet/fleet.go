// Package fleet runs Fed-SC continuously: an initial one-shot round
// publishes its model through the content-addressed store under
// monotonically versioned tags, and late-joining (or churned) devices
// are then absorbed in incremental rounds without re-running the
// original Phase 2. Each late device runs Phase 1 locally; every local
// cluster is scored against the served bases (the serve min-residual
// engine plus the principal-angle similarity test of the subspace
// theory) and either absorbed into an existing global cluster or
// pooled into a delta Phase 2 sub-solve whose new clusters are spliced
// into the next model version. The store manifest makes any published
// version restorable: Rollback retags the fleet alias to the previous
// digest and reloads the exact prior artifact.
package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/dsvd"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/serve"
	"fedsc/internal/store"
	"fedsc/internal/theory"
)

// Config parameterizes a fleet controller.
type Config struct {
	// L is the number of global clusters of the initial round.
	L int
	// Local configures Phase 1 on every device (initial and late).
	Local core.LocalOptions
	// Central configures Phase 2 — the initial solve and the delta
	// sub-solves alike.
	Central core.CentralOptions
	// Seed drives every controller decision (per-device Phase 1 seeds,
	// central clustering), so a fleet scenario replays deterministically.
	Seed int64
	// Store persists every published model version; required.
	Store *store.Store
	// DistributedBases refines exported cluster bases — the initial
	// round's and every spliced delta cluster's — with a distributed
	// dominant SVD over the owning devices' raw columns
	// (core.Options.DistributedBases / internal/dsvd): the basis the
	// serve engine scores against is then fit to all member points
	// while raw columns never leave their devices.
	DistributedBases bool
	// Obs receives the fleet metrics; nil publishes to obs.Default.
	Obs *obs.Registry
	// Trace, when non-nil, records each round's phase tree.
	Trace *obs.Tracer
}

// The fleet's publish tag and join gates, the same for every
// controller.
const (
	// alias is the manifest tag that always points at the current
	// version; versioned tags are derived as "<alias>@v<N>".
	alias = "fleet"
	// absorbResidual is the largest mean projection residual (samples
	// are unit-norm, so it lies in [0, 1]) a late local cluster may
	// have against its winning global basis and still be absorbed.
	absorbResidual = 0.35
	// absorbCos is the smallest principal-angle cosine required
	// between the late cluster's basis and the winning global basis
	// for absorption — the Vahidian-style subspace similarity test
	// that keeps a residual fluke from merging distinct subspaces.
	absorbCos = 0.8
	// mergeAffinity groups pooled (non-absorbed) late clusters into
	// delta components: two pooled bases with normalized affinity at
	// or above it are solved as one new global cluster.
	mergeAffinity = 0.8
)

func (c Config) reg() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// Version identifies one published model version.
type Version struct {
	// Version is the monotonic version number (1 for the initial
	// round). Rollback never reuses a number: the next splice after a
	// rollback publishes a fresh, higher version.
	Version int
	// Tag is the immutable versioned manifest tag "<alias>@v<N>".
	Tag string
	// Digest is the full hex content address of the artifact.
	Digest string
	// Clusters is the model's global cluster count at this version.
	Clusters int
}

// JoinResult summarizes one incremental round.
type JoinResult struct {
	// Labels[i] holds the global labels of late device i's points
	// under the (possibly new) current model.
	Labels [][]int
	// Absorbed counts late local clusters folded into existing global
	// clusters; Spliced counts new global clusters added by the delta
	// sub-solve.
	Absorbed, Spliced int
	// Changed reports whether a new model version was published.
	Changed bool
	// Version is the current version after the round.
	Version Version
}

// Controller owns the fleet lifecycle: initial round, incremental
// rounds, rollback. Methods are safe for concurrent use; rounds are
// serialized by the controller mutex.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	model   *core.Model
	engine  *serve.Engine
	history []Version // every published version, in publish order
	cur     int       // index into history of the current version
	next    int       // next version number to publish (monotonic)
	rng     *rand.Rand

	rounds    *obs.CounterVec
	absorbed  *obs.Counter
	spliced   *obs.Counter
	versionG  *obs.Gauge
	clustersG *obs.Gauge
	roundSec  *obs.Histogram
}

// New builds a controller; the initial round has not run yet.
func New(cfg Config) (*Controller, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: a store is required to version models")
	}
	if cfg.L <= 0 {
		return nil, fmt.Errorf("fleet: non-positive cluster count %d", cfg.L)
	}
	reg := cfg.reg()
	return &Controller{
		cfg:  cfg,
		next: 1,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		rounds: reg.CounterVec("fedsc_fleet_rounds_total",
			"Fleet rounds by kind (initial, incremental, rollback).", "kind"),
		absorbed: reg.Counter("fedsc_fleet_absorbed_clusters_total",
			"Late local clusters absorbed into existing global clusters."),
		spliced: reg.Counter("fedsc_fleet_spliced_clusters_total",
			"New global clusters spliced in by delta sub-solves."),
		versionG: reg.Gauge("fedsc_fleet_version",
			"Current published model version number."),
		clustersG: reg.Gauge("fedsc_fleet_clusters",
			"Global cluster count of the current model."),
		roundSec: reg.Histogram("fedsc_fleet_round_seconds",
			"Wall time of a fleet round (initial or incremental).",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60}),
	}, nil
}

// Current returns the current version; the zero Version before the
// initial round.
func (c *Controller) Current() Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) == 0 {
		return Version{}
	}
	return c.history[c.cur]
}

// History returns every published version in publish order.
func (c *Controller) History() []Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Version(nil), c.history...)
}

// Model returns the current model artifact (nil before the initial
// round). The artifact is immutable; callers must not mutate it.
func (c *Controller) Model() *core.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model
}

// publishLocked stores m as the next version: the alias tag moves to
// it (first publish also makes the alias the manifest default) and an
// immutable versioned tag pins it forever. A versioned tag that already
// names another digest (another controller published that version to
// this store) is refused before either tag moves. The check lives here
// rather than in store.Tag, which moves any name it is given.
func (c *Controller) publishLocked(m *core.Model) (Version, error) {
	digest, err := c.cfg.Store.Put(m)
	if err != nil {
		return Version{}, fmt.Errorf("fleet: publish: %w", err)
	}
	v := Version{
		Version:  c.next,
		Tag:      fmt.Sprintf("%s@v%d", alias, c.next),
		Digest:   digest,
		Clusters: m.L,
	}
	if old, ok := c.cfg.Store.Resolve(v.Tag); ok && old != digest {
		return Version{}, fmt.Errorf("fleet: publish: versioned tag %q already names %s", v.Tag, old)
	}
	if err := c.cfg.Store.Tag(alias, digest); err != nil {
		return Version{}, fmt.Errorf("fleet: publish: %w", err)
	}
	if err := c.cfg.Store.Tag(v.Tag, digest); err != nil {
		return Version{}, fmt.Errorf("fleet: publish: %w", err)
	}
	eng, err := serve.NewEngine(m)
	if err != nil {
		return Version{}, fmt.Errorf("fleet: publish: %w", err)
	}
	c.next++
	c.model, c.engine = m, eng
	c.history = append(c.history, v)
	c.cur = len(c.history) - 1
	c.versionG.Set(int64(v.Version))
	c.clustersG.Set(int64(v.Clusters))
	return v, nil
}

// Initial runs the one-shot Fed-SC round over the founding devices and
// publishes version 1.
func (c *Controller) Initial(devices []*mat.Dense) (core.Result, Version, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) != 0 {
		return core.Result{}, Version{}, fmt.Errorf("fleet: initial round already ran (at version %d)", c.history[c.cur].Version)
	}
	if len(devices) == 0 {
		return core.Result{}, Version{}, fmt.Errorf("fleet: no founding devices")
	}
	start := time.Now()
	span := c.cfg.Trace.Start("fleet.initial", obs.Int("devices", len(devices)), obs.Int("L", c.cfg.L))
	defer span.End()
	res := core.Run(devices, c.cfg.L, core.Options{
		Local:            c.cfg.Local,
		Central:          c.cfg.Central,
		DistributedBases: c.cfg.DistributedBases,
		Obs:              c.cfg.Obs,
		Trace:            c.cfg.Trace,
	}, c.rng)
	var m *core.Model
	var err error
	if c.cfg.DistributedBases {
		// The dsvd-refined bases live on the Result; rebuilding from the
		// pooled samples (ModelFromResult) would discard the refinement.
		spc := c.cfg.Local.SamplesPerCluster
		if spc <= 0 {
			spc = 1
		}
		counts := make([]int, c.cfg.L)
		for _, taus := range res.SampleLabels {
			for _, g := range taus {
				counts[g] += spc
			}
		}
		m, err = core.ModelFromBases(devices[0].Rows(), res.GlobalBases, counts, c.centralMethod())
	} else {
		m, err = core.ModelFromResult(res, c.cfg.L, c.cfg.Local.TargetDim, c.centralMethod())
	}
	if err != nil {
		return core.Result{}, Version{}, fmt.Errorf("fleet: initial round: %w", err)
	}
	v, err := c.publishLocked(m)
	if err != nil {
		return core.Result{}, Version{}, err
	}
	c.rounds.With("initial").Inc()
	c.roundSec.Observe(time.Since(start).Seconds())
	span.SetAttr("version", v.Tag)
	return res, v, nil
}

func (c *Controller) centralMethod() core.CentralMethod {
	if c.cfg.Central.Method == "" {
		return core.CentralSSC
	}
	return c.cfg.Central.Method
}

// lateCluster is one non-absorbed local cluster pooled for the delta
// sub-solve. Pool entry i owns columns [i·spc, (i+1)·spc) of the pooled
// delta matrix.
type lateCluster struct {
	dev, t int
	basis  *mat.Dense
}

// Join runs one incremental round over late devices: Phase 1 locally,
// score-and-absorb against the served bases, and — when any cluster is
// left unexplained — a delta Phase 2 sub-solve whose clusters are
// spliced into a new published version. With every cluster absorbed,
// the model (and its digest) is untouched.
func (c *Controller) Join(devices []*mat.Dense) (JoinResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) == 0 {
		return JoinResult{}, fmt.Errorf("fleet: no initial round to join")
	}
	if len(devices) == 0 {
		return JoinResult{Version: c.history[c.cur]}, nil
	}
	start := time.Now()
	span := c.cfg.Trace.Start("fleet.join", obs.Int("devices", len(devices)))
	defer span.End()

	locals := core.LocalPhase(span, devices, c.cfg.Local, c.rng)

	ambient := c.model.Ambient
	spc := c.cfg.Local.SamplesPerCluster
	if spc <= 0 {
		spc = 1
	}
	oldBases := c.model.Bases()

	// Score every late local cluster against the served bases: its
	// samples vote for a global cluster by minimum residual, and the
	// winner must also pass the principal-angle similarity test
	// between the late cluster's own basis and the winning global one.
	scoreSpan := span.Start("score.absorb")
	taus := make([][]int, len(devices)) // taus[dev][t] = global label, or -1-i for pool entry i
	var pool []lateCluster
	var poolCols []*mat.Dense
	absorbed := 0
	for dev, lr := range locals {
		if devices[dev].Rows() != ambient {
			scoreSpan.End()
			return JoinResult{}, fmt.Errorf("fleet: late device %d lives in %d dims, model expects %d",
				dev, devices[dev].Rows(), ambient)
		}
		taus[dev] = make([]int, lr.R())
		labels, residuals, err := c.engine.Assign(lr.Samples)
		if err != nil {
			scoreSpan.End()
			return JoinResult{}, fmt.Errorf("fleet: score late device %d: %w", dev, err)
		}
		for t := 0; t < lr.R(); t++ {
			// Majority vote over the cluster's samples and their mean
			// residual.
			best := core.Vote(labels[t*spc : (t+1)*spc])
			meanRes := 0.0
			for _, r := range residuals[t*spc : (t+1)*spc] {
				meanRes += r
			}
			meanRes /= float64(spc)
			// The late cluster's own subspace basis, as Phase 1
			// recovered it from the member points.
			basis := lr.Bases[t]
			minCos := 0.0
			if oldBases[best].Cols() > 0 {
				cos := theory.PrincipalAngles(basis, oldBases[best])
				if len(cos) > 0 {
					minCos = cos[len(cos)-1]
				}
			}
			if meanRes <= absorbResidual && minCos >= absorbCos {
				taus[dev][t] = best
				absorbed++
				continue
			}
			// Unexplained: pool the cluster's samples for the delta solve.
			taus[dev][t] = -1 - len(pool)
			pool = append(pool, lateCluster{dev: dev, t: t, basis: basis})
			poolCols = append(poolCols, lr.Samples.SelectCols(sampleIdx(t, spc)))
		}
	}
	scoreSpan.End()
	c.absorbed.Add(int64(absorbed))

	out := JoinResult{Absorbed: absorbed}
	splicedCount := 0
	if len(pool) > 0 {
		deltaSpan := span.Start("delta.solve", obs.Int("pooled", len(pool)))
		// Estimate the number of new clusters by grouping pooled bases
		// whose subspaces agree (normalized affinity), then sub-solve
		// the pooled samples into that many clusters.
		lDelta := deltaComponents(pool, mergeAffinity)
		deltaTheta := mat.HStack(poolCols...)
		sub := core.CentralCluster(deltaTheta, len(pool), lDelta, c.cfg.Central, c.rng)
		// Majority vote per pooled cluster over its samples' delta
		// labels; every sample then carries its cluster's vote.
		deltaOf := make([]int, len(pool))
		deltaLabels := make([]int, len(pool)*spc)
		for i := range pool {
			deltaOf[i] = core.Vote(sub.Labels[i*spc : (i+1)*spc])
			for s := 0; s < spc; s++ {
				deltaLabels[i*spc+s] = deltaOf[i]
			}
		}
		// New bases from the pooled samples; delta clusters that won no
		// pooled cluster vote are dropped and the rest renumbered, so
		// the spliced model never carries an empty cluster.
		deltaBases, _ := core.GlobalBases(deltaTheta, deltaLabels, lDelta, c.cfg.Local.TargetDim)
		counts := make([]int, lDelta)
		for _, d := range deltaOf {
			counts[d] += spc
		}
		if c.cfg.DistributedBases {
			// Refit each surviving delta basis to every member point on
			// the late devices, each device's columns concatenated
			// across its pooled clusters in pool order.
			refineSpan := deltaSpan.Start("delta.refine", obs.Int("clusters", lDelta))
			members := make([][][]int, lDelta)
			for d := range members {
				members[d] = make([][]int, len(devices))
			}
			for i, lc := range pool {
				m := members[deltaOf[i]]
				m[lc.dev] = append(m[lc.dev], locals[lc.dev].Partitions[lc.t]...)
			}
			core.RefineBases(devices, members, deltaBases, dsvd.Options{Obs: c.cfg.Obs, Trace: c.cfg.Trace}, c.rng)
			refineSpan.End()
		}
		remap := make([]int, lDelta)
		oldL := c.model.L
		allBases := oldBases
		allCounts := make([]int, oldL)
		for g, cl := range c.model.Clusters {
			allCounts[g] = cl.Samples
		}
		for d := 0; d < lDelta; d++ {
			if counts[d] == 0 {
				remap[d] = -1
				continue
			}
			remap[d] = oldL + splicedCount
			splicedCount++
			allBases = append(allBases, deltaBases[d])
			allCounts = append(allCounts, counts[d])
		}
		for dev := range taus {
			for t, tau := range taus[dev] {
				if tau >= 0 {
					continue
				}
				taus[dev][t] = remap[deltaOf[-1-tau]]
			}
		}
		deltaSpan.End()

		m, err := core.ModelFromBases(ambient, allBases, allCounts, c.centralMethod())
		if err != nil {
			return JoinResult{}, fmt.Errorf("fleet: splice: %w", err)
		}
		v, err := c.publishLocked(m)
		if err != nil {
			return JoinResult{}, err
		}
		span.SetAttr("version", v.Tag)
		out.Changed = true
	}
	c.spliced.Add(int64(splicedCount))
	out.Spliced = splicedCount

	// Phase 3 for the late devices under the final label space.
	out.Labels = make([][]int, len(devices))
	for dev, lr := range locals {
		labels := make([]int, devices[dev].Cols())
		for t, idx := range lr.Partitions {
			for _, i := range idx {
				labels[i] = taus[dev][t]
			}
		}
		out.Labels[dev] = labels
	}
	out.Version = c.history[c.cur]
	c.rounds.With("incremental").Inc()
	c.roundSec.Observe(time.Since(start).Seconds())
	return out, nil
}

// Rollback retags the fleet alias to the previous published version
// and reloads the artifact from the store by digest, so the restored
// model is provably the exact prior bytes. The versioned tags stay in
// the manifest; the next splice publishes a fresh higher version.
func (c *Controller) Rollback() (Version, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == 0 {
		if len(c.history) == 0 {
			return Version{}, fmt.Errorf("fleet: nothing published yet")
		}
		return Version{}, fmt.Errorf("fleet: already at the oldest version %d", c.history[0].Version)
	}
	span := c.cfg.Trace.Start("fleet.rollback")
	defer span.End()
	target := c.history[c.cur-1]
	if err := c.cfg.Store.Tag(alias, target.Digest); err != nil {
		return Version{}, fmt.Errorf("fleet: rollback: %w", err)
	}
	m, err := c.cfg.Store.Get(target.Digest)
	if err != nil {
		return Version{}, fmt.Errorf("fleet: rollback: %w", err)
	}
	eng, err := serve.NewEngine(m)
	if err != nil {
		return Version{}, fmt.Errorf("fleet: rollback: %w", err)
	}
	c.cur--
	c.model, c.engine = m, eng
	c.versionG.Set(int64(target.Version))
	c.clustersG.Set(int64(target.Clusters))
	c.rounds.With("rollback").Inc()
	span.SetAttr("version", target.Tag)
	return target, nil
}

// Assign scores points against the current model (the serve engine's
// min-residual rule); a convenience for measuring fleet accuracy.
func (c *Controller) Assign(x *mat.Dense) ([]int, []float64, error) {
	c.mu.Lock()
	eng := c.engine
	c.mu.Unlock()
	if eng == nil {
		return nil, nil, fmt.Errorf("fleet: no model published")
	}
	return eng.Assign(x)
}

// sampleIdx lists local cluster t's column indices in a Phase 1 sample
// matrix with spc samples per cluster.
func sampleIdx(t, spc int) []int {
	idx := make([]int, spc)
	for s := 0; s < spc; s++ {
		idx[s] = t*spc + s
	}
	return idx
}

// deltaComponents groups the pooled clusters by subspace agreement: a
// union-find over pairs whose normalized affinity meets the threshold.
// The component count is the delta solve's cluster count.
func deltaComponents(pool []lateCluster, threshold float64) int {
	parent := make([]int, len(pool))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			if theory.NormalizedAffinity(pool[i].basis, pool[j].basis) >= threshold {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	count := 0
	for i := range parent {
		if find(i) == i {
			count++
		}
	}
	return count
}
