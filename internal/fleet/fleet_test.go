package fleet

import (
	"math/rand"
	"reflect"
	"testing"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/store"
	"fedsc/internal/synth"
)

// churnWorld is a fixed union-of-subspaces universe plus the device
// waves of a churn scenario: founding devices see only the first three
// subspaces; later waves re-visit known subspaces (absorb path) and
// introduce the remaining two (splice path).
type churnWorld struct {
	s      synth.Subspaces
	rng    *rand.Rand
	x      []*mat.Dense
	truth  [][]int
	waves  [][]int // waves[w] lists device indices of wave w (wave 0 = founding)
	nextID int
}

const (
	worldN   = 30 // ambient dimension
	worldD   = 3  // subspace dimension
	worldL   = 5  // total subspaces across the scenario's lifetime
	worldPer = 15 // points per subspace per device
)

func newChurnWorld(seed int64) *churnWorld {
	rng := rand.New(rand.NewSource(seed))
	return &churnWorld{s: synth.RandomSubspaces(worldN, worldD, worldL, rng), rng: rng}
}

// wave adds one wave of devices; each device draws worldPer points from
// every listed subspace.
func (w *churnWorld) wave(deviceSubs ...[]int) []*mat.Dense {
	var ids []int
	var devices []*mat.Dense
	for _, subs := range deviceSubs {
		counts := make([]int, worldL)
		for _, c := range subs {
			counts[c] = worldPer
		}
		ds := w.s.SampleCounts(counts, w.rng)
		w.x = append(w.x, ds.X)
		w.truth = append(w.truth, ds.Labels)
		ids = append(ids, w.nextID)
		w.nextID++
		devices = append(devices, ds.X)
	}
	w.waves = append(w.waves, ids)
	return devices
}

func testController(t *testing.T, l int, seed int64) *Controller {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := New(Config{
		L:     l,
		Local: core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
		Seed:  seed,
		Store: st,
		Obs:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("new controller: %v", err)
	}
	return c
}

// fleetAccuracy scores every device's points against the current model
// and returns the clustering accuracy over the whole population.
func fleetAccuracy(t *testing.T, c *Controller, w *churnWorld) float64 {
	t.Helper()
	var truth, pred []int
	for dev, x := range w.x {
		labels, _, err := c.Assign(x)
		if err != nil {
			t.Fatalf("assign device %d: %v", dev, err)
		}
		truth = append(truth, w.truth[dev]...)
		pred = append(pred, labels...)
	}
	return metrics.Accuracy(truth, pred)
}

// TestChurnScenarioTracksOneShotBaseline is the headline acceptance
// test: founding devices see 3 of 5 subspaces, three incremental waves
// bring back known subspaces and introduce the two missing ones, and
// the final fleet model must land within 5 accuracy points of the
// all-devices one-shot Fed-SC run.
func TestChurnScenarioTracksOneShotBaseline(t *testing.T) {
	w := newChurnWorld(7)
	founding := w.wave([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2})
	c := testController(t, 3, 42)

	_, v1, err := c.Initial(founding)
	if err != nil {
		t.Fatalf("initial round: %v", err)
	}
	if v1.Version != 1 || v1.Clusters != 3 {
		t.Fatalf("initial version %+v, want version 1 with 3 clusters", v1)
	}

	// Wave 1: familiar subspaces only — every cluster must absorb and
	// the published model (hence its digest) must not move.
	res1, err := c.Join(w.wave([]int{0, 1}, []int{2}))
	if err != nil {
		t.Fatalf("join wave 1: %v", err)
	}
	if res1.Changed || res1.Spliced != 0 {
		t.Fatalf("absorb-only wave published a new version: %+v", res1)
	}
	if res1.Absorbed == 0 {
		t.Fatal("absorb-only wave absorbed nothing")
	}
	if got := c.Current(); got.Digest != v1.Digest {
		t.Fatalf("absorb-only wave moved the digest %s -> %s", v1.Digest, got.Digest)
	}

	// Wave 2: subspace 3 appears (alongside a known one) — the unknown
	// clusters pool into a delta solve and splice a new global cluster.
	res2, err := c.Join(w.wave([]int{0, 3}, []int{3}))
	if err != nil {
		t.Fatalf("join wave 2: %v", err)
	}
	if !res2.Changed || res2.Spliced == 0 {
		t.Fatalf("novel-subspace wave spliced nothing: %+v", res2)
	}
	if res2.Version.Version != 2 {
		t.Fatalf("splice published version %d, want 2", res2.Version.Version)
	}
	if res2.Version.Clusters <= v1.Clusters {
		t.Fatalf("splice did not grow the model: %d -> %d clusters", v1.Clusters, res2.Version.Clusters)
	}

	// Wave 3: subspace 4 appears.
	res3, err := c.Join(w.wave([]int{4, 1}, []int{4}))
	if err != nil {
		t.Fatalf("join wave 3: %v", err)
	}
	if !res3.Changed || res3.Version.Version != 3 {
		t.Fatalf("wave 3 result %+v, want a version-3 splice", res3)
	}

	// Baseline: the one-shot run had every device from the start.
	var allTruth []int
	for _, labels := range w.truth {
		allTruth = append(allTruth, labels...)
	}
	base := core.Run(w.x, worldL, core.Options{
		Local: core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
	}, rand.New(rand.NewSource(42)))
	var baseLabels []int
	for _, labels := range base.Labels {
		baseLabels = append(baseLabels, labels...)
	}
	baseAcc := metrics.Accuracy(allTruth, baseLabels)
	fleetAcc := fleetAccuracy(t, c, w)
	t.Logf("one-shot baseline %.2f%%, continuous fleet %.2f%%", baseAcc, fleetAcc)
	if fleetAcc < baseAcc-5 {
		t.Fatalf("continuous federation accuracy %.2f%% trails the one-shot baseline %.2f%% by more than 5 points",
			fleetAcc, baseAcc)
	}

	// Every join also labeled the late devices under the final model's
	// label space; absorbed clusters keep the original global indices.
	if len(res3.Labels) != 2 || len(res3.Labels[0]) != 2*worldPer {
		t.Fatalf("wave 3 labels shape %d devices x %d points", len(res3.Labels), len(res3.Labels[0]))
	}
}

// TestRollbackRestoresExactDigest pins the rollback contract: retagging
// through the store manifest restores the exact prior artifact digest,
// the reloaded model matches it byte-for-byte, and the next splice
// publishes a fresh (never reused) version number.
func TestRollbackRestoresExactDigest(t *testing.T) {
	w := newChurnWorld(9)
	founding := w.wave([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{0, 1})
	c := testController(t, 3, 17)
	if _, _, err := c.Initial(founding); err != nil {
		t.Fatalf("initial: %v", err)
	}
	v1 := c.Current()

	wave2 := w.wave([]int{3}, []int{3, 0})
	res, err := c.Join(wave2)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if !res.Changed {
		t.Fatalf("novel wave did not publish: %+v", res)
	}
	v2 := c.Current()
	if v2.Digest == v1.Digest {
		t.Fatal("splice reused the prior digest")
	}

	back, err := c.Rollback()
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if back.Digest != v1.Digest || back.Version != v1.Version {
		t.Fatalf("rollback landed on %+v, want exactly %+v", back, v1)
	}
	// The manifest alias and the in-memory model both point at the
	// restored content address.
	digest, ok := c.cfg.Store.Resolve(alias)
	if !ok {
		t.Fatalf("alias %s missing from the manifest", alias)
	}
	if digest != v1.Digest {
		t.Fatalf("manifest alias resolves to %s after rollback, want %s", digest, v1.Digest)
	}
	if got := store.Digest(c.Model()); got != v1.Digest {
		t.Fatalf("reloaded model digests to %s, want the exact prior %s", got, v1.Digest)
	}
	if c.Model().L != v1.Clusters {
		t.Fatalf("rolled-back model has %d clusters, want %d", c.Model().L, v1.Clusters)
	}

	// Rolling back past the oldest version is refused.
	if _, err := c.Rollback(); err == nil {
		t.Fatal("rollback past version 1 succeeded")
	}

	// Re-churn after rollback: version numbers stay monotonic — the
	// next splice is version 3, not a reused 2.
	res2, err := c.Join(wave2)
	if err != nil {
		t.Fatalf("re-join: %v", err)
	}
	if !res2.Changed || res2.Version.Version != 3 {
		t.Fatalf("post-rollback splice %+v, want a fresh version 3", res2)
	}
	// Both pinned tags survive in the manifest for audit.
	for _, tag := range []string{"fleet@v1", "fleet@v2", "fleet@v3"} {
		if _, ok := c.cfg.Store.Resolve(tag); !ok {
			t.Fatalf("versioned tag %s lost from the manifest", tag)
		}
	}
	hist := c.History()
	if len(hist) != 3 {
		t.Fatalf("history holds %d versions, want 3", len(hist))
	}
	for i, v := range hist {
		if v.Version != i+1 {
			t.Fatalf("history[%d] is version %d, want %d", i, v.Version, i+1)
		}
	}
}

// TestControllerLifecycleErrors pins the lifecycle guard rails.
func TestControllerLifecycleErrors(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := New(Config{L: 3}); err == nil {
		t.Fatal("controller without a store accepted")
	}
	if _, err := New(Config{Store: st}); err == nil {
		t.Fatal("controller without a cluster count accepted")
	}
	w := newChurnWorld(3)
	founding := w.wave([]int{0, 1}, []int{1, 2}, []int{0, 2})
	c := testController(t, 3, 5)
	if _, err := c.Join(founding); err == nil {
		t.Fatal("join before the initial round accepted")
	}
	if _, err := c.Rollback(); err == nil {
		t.Fatal("rollback before the initial round accepted")
	}
	if got := c.Current(); got.Version != 0 {
		t.Fatalf("pre-initial current version %+v", got)
	}
	if _, _, err := c.Assign(founding[0]); err == nil {
		t.Fatal("assign before the initial round accepted")
	}
	if _, _, err := c.Initial(founding); err != nil {
		t.Fatalf("initial: %v", err)
	}
	if _, _, err := c.Initial(founding); err == nil {
		t.Fatal("second initial round accepted")
	}
	// An empty join is a no-op reporting the current version.
	res, err := c.Join(nil)
	if err != nil || res.Changed || res.Version.Version != 1 {
		t.Fatalf("empty join: res=%+v err=%v", res, err)
	}
}

// TestVersionedTagsStayImmutable: a second controller over the same
// store also starts at version 1, so its initial publish would move
// fleet@v1 to another digest. It must fail instead, leaving the
// versioned tag and the alias on the first controller's digest.
func TestVersionedTagsStayImmutable(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	open := func(seed int64) *Controller {
		c, err := New(Config{
			L:     3,
			Local: core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
			Seed:  seed,
			Store: st,
			Obs:   obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("new controller: %v", err)
		}
		return c
	}
	w := newChurnWorld(3)
	_, v1, err := open(5).Initial(w.wave([]int{0, 1}, []int{1, 2}, []int{0, 2}))
	if err != nil {
		t.Fatalf("first initial: %v", err)
	}
	second := open(6)
	if _, _, err := second.Initial(w.wave([]int{0, 2}, []int{1, 2}, []int{0, 1})); err == nil {
		t.Fatalf("second controller re-tagged %s", v1.Tag)
	}
	if got := second.Current(); got.Version != 0 {
		t.Fatalf("refused publish still recorded version %+v", got)
	}
	for _, name := range []string{v1.Tag, alias} {
		if d, ok := st.Resolve(name); !ok || d != v1.Digest {
			t.Fatalf("manifest %s = %q, want the first digest %q", name, d, v1.Digest)
		}
	}
}

// TestJoinIsDeterministic replays a full churn scenario under the same
// seed and demands identical versions, digests, and labels.
func TestJoinIsDeterministic(t *testing.T) {
	run := func() (Version, [][]int) {
		w := newChurnWorld(13)
		founding := w.wave([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{0, 1})
		c := testController(t, 3, 23)
		if _, _, err := c.Initial(founding); err != nil {
			t.Fatalf("initial: %v", err)
		}
		res, err := c.Join(w.wave([]int{3, 0}, []int{3}))
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		return c.Current(), res.Labels
	}
	v1, labels1 := run()
	v2, labels2 := run()
	// Digests differ across runs (the artifact checksum covers its
	// creation timestamp); the clustering decisions must not.
	if v1.Version != v2.Version || v1.Clusters != v2.Clusters || v1.Tag != v2.Tag {
		t.Fatalf("replay diverged: %+v vs %+v", v1, v2)
	}
	for dev := range labels1 {
		for i := range labels1[dev] {
			if labels1[dev][i] != labels2[dev][i] {
				t.Fatalf("replay label diverged at device %d point %d", dev, i)
			}
		}
	}
}

// TestDistributedBasesFleetLifecycle runs the churn scenario with
// Config.DistributedBases: the initial publish and every spliced delta
// cluster carry dsvd-refined bases (fit to all member points, raw
// columns never pooled). The published bases must stay orthonormal,
// the spliced model must still assign accurately, and the whole
// lifecycle must replay deterministically for a fixed seed.
func TestDistributedBasesFleetLifecycle(t *testing.T) {
	run := func() (Version, [][]int, *Controller, *churnWorld) {
		w := newChurnWorld(13)
		founding := w.wave([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{0, 1})
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		c, err := New(Config{
			L:                3,
			Local:            core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
			Seed:             23,
			Store:            st,
			Obs:              obs.NewRegistry(),
			DistributedBases: true,
		})
		if err != nil {
			t.Fatalf("new controller: %v", err)
		}
		if _, _, err := c.Initial(founding); err != nil {
			t.Fatalf("initial: %v", err)
		}
		res, err := c.Join(w.wave([]int{3, 0}, []int{3}))
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		if res.Spliced == 0 {
			t.Fatal("the unseen subspace must splice a new cluster")
		}
		return c.Current(), res.Labels, c, w
	}
	v1, labels1, c, w := run()
	for g, basis := range c.Model().Bases() {
		k := basis.Cols()
		gram := mat.MulTA(basis, basis)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if d := gram.At(i, j) - want; d > 1e-9 || d < -1e-9 {
					t.Fatalf("published cluster %d basis not orthonormal at %d,%d: %g", g, i, j, gram.At(i, j))
				}
			}
		}
	}
	if acc := fleetAccuracy(t, c, w); acc < 90 {
		t.Fatalf("refined fleet model accuracy %.1f%% < 90%%", acc)
	}
	v2, labels2, _, _ := run()
	if v1.Version != v2.Version || v1.Clusters != v2.Clusters || v1.Tag != v2.Tag {
		t.Fatalf("replay diverged: %+v vs %+v", v1, v2)
	}
	for dev := range labels1 {
		for i := range labels1[dev] {
			if labels1[dev][i] != labels2[dev][i] {
				t.Fatalf("replay label diverged at device %d point %d", dev, i)
			}
		}
	}
}

// TestJoinAbsorbTieBreaksToLowestCluster is the crafted-tie audit pin
// for absorb voting: a model is published whose clusters 0 and 1 carry
// IDENTICAL bases, so every late sample's min-residual vote ties
// exactly across the two global clusters. The tie must resolve to the
// lowest cluster index — via the serve engine's strict < argmin and
// Join's lowest-label-wins majority vote — never to map iteration
// order, and the whole round must replay identically.
func TestJoinAbsorbTieBreaksToLowestCluster(t *testing.T) {
	const n = 6
	e1 := mat.NewDense(n, 1)
	e1.Data()[0] = 1
	run := func() JoinResult {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		c, err := New(Config{
			L:     2,
			Local: core.LocalOptions{UseEigengap: false, RMax: 1, SamplesPerCluster: 2},
			Seed:  71,
			Store: st,
			Obs:   obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("new controller: %v", err)
		}
		m, err := core.ModelFromBases(n, []*mat.Dense{e1.Clone(), e1.Clone()}, []int{1, 1}, core.CentralSSC)
		if err != nil {
			t.Fatalf("model: %v", err)
		}
		if _, err := c.publishLocked(m); err != nil {
			t.Fatalf("publish: %v", err)
		}
		// One late device whose points all lie on span(e1): residuals to
		// clusters 0 and 1 are bit-equal for every sample.
		late := mat.NewDense(n, 5)
		for j := 0; j < 5; j++ {
			late.Data()[j] = 0.5 + 0.3*float64(j) // row 0 = e1 coordinate
		}
		res, err := c.Join([]*mat.Dense{late})
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		return res
	}
	first := run()
	if first.Absorbed != 1 || first.Changed {
		t.Fatalf("tie cluster not absorbed: %+v", first)
	}
	for _, lab := range first.Labels[0] {
		if lab != 0 {
			t.Fatalf("tied vote resolved to cluster %d, want lowest index 0 (labels %v)", lab, first.Labels[0])
		}
	}
	second := run()
	// Digests differ across runs (the artifact checksum covers its
	// creation timestamp); every clustering decision must not.
	first.Version.Digest, second.Version.Digest = "", ""
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("tied absorb round diverged across replays:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
