package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/store"
)

// axisModel builds a tiny sealed artifact whose cluster g's basis is
// the axis perm[g], so assignments are exactly predictable: point
// e_{perm[g]} gets label g with zero residual.
func axisModel(t testing.TB, perm []int) *core.Model {
	t.Helper()
	const ambient = 4
	m := &core.Model{Version: core.ModelVersion, Ambient: ambient, L: len(perm), Method: "ssc",
		CreatedUnixNano: 1}
	for _, axis := range perm {
		data := make([]float64, ambient)
		data[axis] = 1
		m.Clusters = append(m.Clusters, core.ClusterBasis{Dim: 1, Data: data, Samples: 1})
	}
	m.Seal()
	if err := m.Validate(); err != nil {
		t.Fatalf("axis model invalid: %v", err)
	}
	return m
}

// axisPoint returns the ambient-4 unit vector along the given axis.
func axisPoint(axis int) []float64 {
	p := make([]float64, 4)
	p[axis] = 1
	return p
}

// TestRegistryUseStoreRoutesAllManifestEntries: binding a registry to a
// two-model store must serve both names, route the default, and follow
// manifest changes (retag, untag, default move) through Reload.
func TestRegistryUseStoreRoutesAllManifestEntries(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	a := axisModel(t, []int{0, 1}) // alpha: e0→0, e1→1
	b := axisModel(t, []int{1, 0}) // beta:  e0→1, e1→0
	if _, err := st.PutTagged("alpha", a); err != nil {
		t.Fatalf("put alpha: %v", err)
	}
	digestB, err := st.PutTagged("beta", b)
	if err != nil {
		t.Fatalf("put beta: %v", err)
	}

	reg := NewRegistry()
	changed, err := reg.UseStore(st)
	if err != nil {
		t.Fatalf("use store: %v", err)
	}
	if len(changed) != 2 {
		t.Fatalf("initial sync changed %v, want both models", changed)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("names %v", got)
	}
	if cur := reg.Current(); cur == nil || cur.Name != "alpha" {
		t.Fatalf("default route %+v, want alpha (first tag)", cur)
	}

	// Routed assignment: the same point gets opposite labels per model.
	batcher := NewBatcher(reg, NewMetrics(), BatcherOptions{MaxWait: -1})
	defer batcher.Stop()
	for _, tc := range []struct {
		model string
		want  int
	}{{"alpha", 0}, {"beta", 1}, {"", 0}} {
		got, name, err := batcher.AssignModel(context.Background(), tc.model, [][]float64{axisPoint(0)})
		if err != nil {
			t.Fatalf("assign via %q: %v", tc.model, err)
		}
		if got[0].Label != tc.want {
			t.Fatalf("model %q labeled e0 as %d, want %d (scored by %s)", tc.model, got[0].Label, tc.want, name)
		}
	}
	if _, _, err := batcher.AssignModel(context.Background(), "ghost", [][]float64{axisPoint(0)}); err == nil {
		t.Fatal("unknown model name accepted")
	}

	// Retag alpha to beta's artifact and move the default: one Sync must
	// pick up both, nothing else changes.
	if err := st.Tag("alpha", digestB); err != nil {
		t.Fatalf("retag: %v", err)
	}
	if err := st.SetDefault("beta"); err != nil {
		t.Fatalf("set default: %v", err)
	}
	changed, err = reg.Reload()
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if len(changed) != 1 || changed[0] != "alpha" {
		t.Fatalf("sync changed %v, want [alpha]", changed)
	}
	if cur := reg.Current(); cur == nil || cur.Name != "beta" {
		t.Fatalf("default after sync %+v, want beta", cur)
	}
	got, _, err := batcher.AssignModel(context.Background(), "alpha", [][]float64{axisPoint(0)})
	if err != nil {
		t.Fatalf("assign retagged alpha: %v", err)
	}
	if got[0].Label != 1 {
		t.Fatalf("retagged alpha labeled e0 as %d, want 1 (beta's artifact)", got[0].Label)
	}
	// A no-op sync reports no changes and allocates no new snapshots.
	seqBefore := reg.Get("beta").Seq
	if changed, err := reg.Reload(); err != nil || len(changed) != 0 {
		t.Fatalf("idle sync: changed=%v err=%v", changed, err)
	}
	if reg.Get("beta").Seq != seqBefore {
		t.Fatal("idle sync rebuilt an unchanged snapshot")
	}

	// Untagging drops the model from routing.
	if err := st.Untag("alpha"); err != nil {
		t.Fatalf("untag: %v", err)
	}
	if changed, err := reg.Reload(); err != nil || len(changed) != 1 || changed[0] != "alpha" {
		t.Fatalf("sync after untag: changed=%v err=%v", changed, err)
	}
	if reg.Get("alpha") != nil {
		t.Fatal("untagged model still routed")
	}
	if _, _, err := batcher.AssignModel(context.Background(), "alpha", [][]float64{axisPoint(0)}); err == nil {
		t.Fatal("assign to untagged model succeeded")
	}

	// /v1/models history: exactly the still-served loads are active.
	active := 0
	for _, mi := range reg.Models() {
		if mi.Active {
			active++
			if mi.Name != "beta" {
				t.Fatalf("active entry %+v, want beta", mi)
			}
		}
	}
	if active != 1 {
		t.Fatalf("%d active entries, want 1", active)
	}
}

// TestBatcherAdmissionControl: a request that would push the pending
// queue past MaxQueue is shed with ErrOverloaded immediately — it does
// not block, time out, or poison the queue — and the shed counter and
// queue-depth gauge record it.
func TestBatcherAdmissionControl(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.PutTagged("m", axisModel(t, []int{0, 1})); err != nil {
		t.Fatalf("put: %v", err)
	}
	reg := NewRegistry()
	if _, err := reg.UseStore(st); err != nil {
		t.Fatalf("use store: %v", err)
	}
	metrics := NewMetrics()
	b := NewBatcher(reg, metrics, BatcherOptions{MaxBatch: 2, MaxQueue: 4, MaxWait: -1})
	defer b.Stop()

	oversized := make([][]float64, 5)
	for i := range oversized {
		oversized[i] = axisPoint(i % 2)
	}
	start := time.Now()
	_, _, err = b.AssignModel(context.Background(), "m", oversized)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized request: %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %s, want fail-fast", d)
	}
	if metrics.Shed() != 1 {
		t.Fatalf("shed counter %d, want 1", metrics.Shed())
	}
	// Shedding must not leak queue capacity: a fitting request still
	// goes through and the depth gauge returns to zero.
	got, _, err := b.AssignModel(context.Background(), "m", [][]float64{axisPoint(1)})
	if err != nil {
		t.Fatalf("assign after shed: %v", err)
	}
	if got[0].Label != 1 {
		t.Fatalf("label %d, want 1", got[0].Label)
	}
	if metrics.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after quiescence", metrics.QueueDepth())
	}
}
