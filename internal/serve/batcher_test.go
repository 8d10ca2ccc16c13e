package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fedsc/internal/mat"
)

func newTestRegistry(t testing.TB, seed int64) (*Registry, []*mat.Dense, [][]int) {
	t.Helper()
	devices, res, m := trainModel(t, seed)
	reg := NewRegistry()
	if err := reg.SetModel("test-model", m); err != nil {
		t.Fatalf("SetModel: %v", err)
	}
	return reg, devices, res.Labels
}

func TestBatcherAssignMatchesEngine(t *testing.T) {
	reg, devices, labels := newTestRegistry(t, 61)
	metrics := NewMetrics()
	b := NewBatcher(reg, metrics, BatcherOptions{})
	defer b.Stop()
	x := devices[0]
	vecs := make([][]float64, x.Cols())
	for j := range vecs {
		vecs[j] = x.Col(j, nil)
	}
	got, model, err := b.AssignModel(context.Background(), "", vecs)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	if model != "test-model" {
		t.Fatalf("scored by %q", model)
	}
	for j, a := range got {
		if a.Label != labels[0][j] {
			t.Fatalf("point %d: batcher %d, round %d", j, a.Label, labels[0][j])
		}
	}
	if metrics.Assigned() != int64(len(vecs)) {
		t.Fatalf("metrics counted %d assignments, want %d", metrics.Assigned(), len(vecs))
	}
}

func TestBatcherRejectsMismatchedDimsIndividually(t *testing.T) {
	reg, devices, _ := newTestRegistry(t, 63)
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	defer b.Stop()
	var wg sync.WaitGroup
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, goodErr = b.AssignModel(context.Background(), "", [][]float64{devices[0].Col(0, nil)})
	}()
	go func() {
		defer wg.Done()
		_, _, badErr = b.AssignModel(context.Background(), "", [][]float64{make([]float64, 3)})
	}()
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("good request failed alongside a bad one: %v", goodErr)
	}
	if badErr == nil {
		t.Fatal("mismatched-dimension request succeeded")
	}
}

func TestBatcherEmptyRequest(t *testing.T) {
	reg, _, _ := newTestRegistry(t, 64)
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	defer b.Stop()
	if _, _, err := b.AssignModel(context.Background(), "", nil); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestBatcherNoModel(t *testing.T) {
	b := NewBatcher(NewRegistry(), NewMetrics(), BatcherOptions{})
	defer b.Stop()
	if _, _, err := b.AssignModel(context.Background(), "", [][]float64{{1, 2}}); err == nil {
		t.Fatal("assign with no model loaded succeeded")
	}
}

func TestBatcherStop(t *testing.T) {
	reg, devices, _ := newTestRegistry(t, 65)
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	b.Stop()
	b.Stop() // idempotent
	_, _, err := b.AssignModel(context.Background(), "", [][]float64{devices[0].Col(0, nil)})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("assign after stop: %v, want ErrStopped", err)
	}
}

func TestBatcherContextCancel(t *testing.T) {
	reg, devices, _ := newTestRegistry(t, 66)
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	defer b.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := b.AssignModel(ctx, "", [][]float64{devices[0].Col(0, nil)})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled assign: %v", err)
	}
}

// TestRetryAfterSeconds pins the derived Retry-After arithmetic: the
// hint is the points in flight divided by the measured throughput
// (points assigned per second of request time), rounded up to whole
// seconds and clamped to [1, 60], never the old hardcoded "1".
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		name               string
		inFlight, assigned int64
		busy               float64
		want               int
	}{
		{"backlog at the measured rate", 50, 100, 10, 5},
		{"partial second rounds up", 21, 100, 10, 3},
		{"empty backlog floors at one second", 0, 100, 10, 1},
		{"no measurement yet floors at one second", 50, 0, 0, 1},
		{"sub-second backlog floors at one second", 8, 4000, 1, 1},
		{"pathological backlog clamps at a minute", 1 << 20, 100, 10, 60},
	} {
		if got := retryAfterSeconds(tc.inFlight, tc.assigned, tc.busy); got != tc.want {
			t.Fatalf("%s: retryAfterSeconds(%d, %d, %g) = %d, want %d",
				tc.name, tc.inFlight, tc.assigned, tc.busy, got, tc.want)
		}
	}
	// The batcher method reads the live gate and its metrics: nothing in
	// flight floors at one second, and so do admitted points before any
	// throughput has been measured.
	reg, _, _ := newTestRegistry(t, 67)
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	defer b.Stop()
	if got := b.RetryAfter(); got != 1 {
		t.Fatalf("idle batcher RetryAfter = %d, want 1", got)
	}
	if err := b.admit(64); err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer b.release(64)
	if got := b.RetryAfter(); got != 1 {
		t.Fatalf("unmeasured batcher RetryAfter = %d, want 1", got)
	}
}
