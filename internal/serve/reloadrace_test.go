package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fedsc/internal/store"
)

// startStoreServer runs the full stack over a store-backed registry
// with the given batcher options.
func startStoreServer(t *testing.T, st *store.Store, opts BatcherOptions) (*Registry, *Metrics, string, func()) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.UseStore(st); err != nil {
		t.Fatalf("use store: %v", err)
	}
	metrics := NewMetrics()
	b := NewBatcher(reg, metrics, opts)
	h := NewHandler(reg, b, metrics)
	base, stop := startListener(t, h)
	return reg, metrics, base, stop
}

// TestReloadRacingAssignScoresOneSnapshot is the satellite regression:
// concurrent /v1/reload-driven store Syncs race batched /v1/assign
// under -race, and every in-flight batch must score against exactly
// one snapshot. The two artifacts deployed under the same name assign
// opposite labels to the probe points, so a batch that mixed snapshots
// would produce a label pattern neither artifact can emit.
func TestReloadRacingAssignScoresOneSnapshot(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	a := axisModel(t, []int{0, 1}) // e0→0, e1→1
	b := axisModel(t, []int{1, 0}) // e0→1, e1→0
	if _, err := st.PutTagged("m", a); err != nil {
		t.Fatalf("put: %v", err)
	}
	_, _, base, stop := startStoreServer(t, st, BatcherOptions{})
	defer stop()

	// Probe batch: alternating axis points. Under artifact a the labels
	// alternate 0,1,0,1…; under b they alternate 1,0,1,0… Any other
	// pattern means two snapshots answered one batch.
	const probe = 8
	points := make([][]float64, probe)
	for i := range points {
		points[i] = axisPoint(i % 2)
	}
	body, err := json.Marshal(AssignRequest{Model: "m", Points: points})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	const assigners, perG = 8, 40
	var wg sync.WaitGroup
	errCh := make(chan error, assigners+1)
	for g := 0; g < assigners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := http.Post(base+"/v1/assign", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- fmt.Errorf("assigner %d: %v", g, err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("assigner %d: status %d err %v: %s", g, resp.StatusCode, err, data)
					return
				}
				var out AssignResponse
				if err := json.Unmarshal(data, &out); err != nil {
					errCh <- fmt.Errorf("assigner %d: %v", g, err)
					return
				}
				if len(out.Assignments) != probe {
					errCh <- fmt.Errorf("assigner %d: %d assignments for %d points", g, len(out.Assignments), probe)
					return
				}
				// first label fixes which artifact answered; every other
				// label must agree with it.
				first := out.Assignments[0].Label
				for j, asg := range out.Assignments {
					want := (first + j) % 2
					if asg.Label != want {
						errCh <- fmt.Errorf("assigner %d: batch mixed snapshots: labels[%d]=%d with labels[0]=%d",
							g, j, asg.Label, first)
						return
					}
				}
			}
		}(g)
	}
	// The swapper alternates the artifact behind "m" and reloads through
	// the HTTP endpoint, exactly as a deploy loop would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			next := a
			if i%2 == 0 {
				next = b
			}
			if _, err := st.PutTagged("m", next); err != nil {
				errCh <- fmt.Errorf("swap %d: %v", i, err)
				return
			}
			resp, err := http.Post(base+"/v1/reload", "application/json", nil)
			if err != nil {
				errCh <- fmt.Errorf("reload %d: %v", i, err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("reload %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestHTTPModelRoutingAndAdmission covers the HTTP-visible contract of
// the multi-model rework: the model field routes, unknown models are
// 400, a request past the admission bound is 429 with Retry-After, and
// the new per-model and queue metrics appear on /metrics.
func TestHTTPModelRoutingAndAdmission(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.PutTagged("alpha", axisModel(t, []int{0, 1})); err != nil {
		t.Fatalf("put alpha: %v", err)
	}
	if _, err := st.PutTagged("beta", axisModel(t, []int{1, 0})); err != nil {
		t.Fatalf("put beta: %v", err)
	}
	_, metrics, base, stop := startStoreServer(t, st, BatcherOptions{MaxQueue: 8})
	defer stop()

	for _, tc := range []struct {
		model string
		want  int
	}{{"alpha", 0}, {"beta", 1}, {"", 0}} {
		var out AssignResponse
		status, body := postJSON(t, base+"/v1/assign",
			AssignRequest{Model: tc.model, Point: axisPoint(0)}, &out)
		if status != http.StatusOK {
			t.Fatalf("assign model %q: %d %s", tc.model, status, body)
		}
		if out.Assignments[0].Label != tc.want {
			t.Fatalf("model %q labeled e0 as %d, want %d", tc.model, out.Assignments[0].Label, tc.want)
		}
	}
	if status, _ := postJSON(t, base+"/v1/assign",
		AssignRequest{Model: "ghost", Point: axisPoint(0)}, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown model: status %d, want 400", status)
	}

	// Admission: 9 points against MaxQueue=8 must shed with 429.
	big := make([][]float64, 9)
	for i := range big {
		big[i] = axisPoint(i % 2)
	}
	raw, err := json.Marshal(AssignRequest{Model: "alpha", Points: big})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/assign", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("oversized post: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized post: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if metrics.Shed() != 1 {
		t.Fatalf("shed counter %d, want 1", metrics.Shed())
	}

	// Per-model and admission metrics are exposed.
	text := fetchMetrics(t, base)
	for _, want := range []string{
		`fedsc_serve_assignments_total{model="alpha"} 2`,
		`fedsc_serve_assignments_total{model="beta"} 1`,
		`fedsc_serve_model_batches_total{model="alpha"} 2`,
		"fedsc_serve_shed_total 1",
		"fedsc_serve_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// Read-only endpoints reject non-GET with 405.
	for _, path := range []string{"/v1/models", "/healthz", "/metrics"} {
		resp, err := http.Post(base+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}

	// /v1/models shows both manifest entries active, default flagged.
	mr, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(mr.Body).Decode(&infos); err != nil {
		t.Fatalf("decode models: %v", err)
	}
	mr.Body.Close()
	active, defaults := 0, 0
	for _, mi := range infos {
		if mi.Active {
			active++
		}
		if mi.Default {
			defaults++
			if mi.Name != "alpha" {
				t.Fatalf("default entry %+v, want alpha", mi)
			}
		}
	}
	if active != 2 || defaults != 1 {
		t.Fatalf("models listing: %d active, %d default: %+v", active, defaults, infos)
	}
}
