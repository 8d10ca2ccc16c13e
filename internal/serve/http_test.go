package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/store"
)

// startServer runs the full stack (registry already populated) on a real
// loopback listener and returns the base URL and a shutdown func.
func startServer(t *testing.T, reg *Registry) (string, func()) {
	t.Helper()
	metrics := NewMetrics()
	b := NewBatcher(reg, metrics, BatcherOptions{})
	return startListener(t, NewHandler(reg, b, metrics))
}

// startListener serves a caller-built handler (Serve stops its batcher
// on shutdown) on a loopback listener.
func startListener(t *testing.T, h *Handler) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, h, 10*time.Second) }()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("server did not shut down")
		}
	}
	return "http://" + ln.Addr().String(), stop
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %q: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

// storeRegistry deploys m into a fresh artifact store under tag and
// returns the store and a registry bound to it.
func storeRegistry(t *testing.T, tag string, m *core.Model) (*store.Store, *Registry) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.PutTagged(tag, m); err != nil {
		t.Fatalf("put: %v", err)
	}
	reg := NewRegistry()
	if _, err := reg.UseStore(st); err != nil {
		t.Fatalf("use store: %v", err)
	}
	return st, reg
}

// TestEndToEndServeMatchesOfflineLabels is the acceptance path: train
// Fed-SC on synthetic data, deploy the artifact into a store, serve it
// on a loopback listener, POST the training points to /v1/assign, and
// demand the returned labels equal the offline Result labels exactly.
func TestEndToEndServeMatchesOfflineLabels(t *testing.T) {
	devices, res, m := trainModel(t, 71)
	_, reg := storeRegistry(t, "round", m)
	base, stop := startServer(t, reg)
	defer stop()

	// Health must be green with a model loaded.
	hr, err := http.Get(base + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr, err)
	}
	hr.Body.Close()

	total := 0
	for dev, x := range devices {
		vecs := make([][]float64, x.Cols())
		for j := range vecs {
			vecs[j] = x.Col(j, nil)
		}
		var out AssignResponse
		status, body := postJSON(t, base+"/v1/assign", AssignRequest{Points: vecs}, &out)
		if status != http.StatusOK {
			t.Fatalf("assign device %d: %d %s", dev, status, body)
		}
		if len(out.Assignments) != len(vecs) {
			t.Fatalf("device %d: %d assignments for %d points", dev, len(out.Assignments), len(vecs))
		}
		for j, a := range out.Assignments {
			if a.Label != res.Labels[dev][j] {
				t.Fatalf("device %d point %d: served %d, offline %d", dev, j, a.Label, res.Labels[dev][j])
			}
		}
		total += len(vecs)
	}

	// Single-point form.
	var single AssignResponse
	status, body := postJSON(t, base+"/v1/assign", AssignRequest{Point: devices[0].Col(0, nil)}, &single)
	if status != http.StatusOK || len(single.Assignments) != 1 {
		t.Fatalf("single assign: %d %s", status, body)
	}
	if single.Assignments[0].Label != res.Labels[0][0] {
		t.Fatalf("single point: served %d, offline %d", single.Assignments[0].Label, res.Labels[0][0])
	}
	total++

	// /v1/models lists the artifact as active.
	mr, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	var models []ModelInfo
	if err := json.NewDecoder(mr.Body).Decode(&models); err != nil {
		t.Fatalf("decode models: %v", err)
	}
	mr.Body.Close()
	if len(models) != 1 || !models[0].Active || models[0].L != 4 {
		t.Fatalf("models listing: %+v", models)
	}

	// /metrics must agree with the traffic we generated.
	text := fetchMetrics(t, base)
	wantReq := fmt.Sprintf("fedsc_serve_requests_total %d", len(devices)+1)
	if !strings.Contains(text, wantReq) {
		t.Fatalf("metrics missing %q:\n%s", wantReq, text)
	}
	wantAssigned := fmt.Sprintf("fedsc_serve_assignments_total{model=%q} %d", "round", total)
	if !strings.Contains(text, wantAssigned) {
		t.Fatalf("metrics missing %q:\n%s", wantAssigned, text)
	}
	if !strings.Contains(text, "fedsc_serve_in_flight 0") {
		t.Fatalf("metrics report in-flight requests after quiescence:\n%s", text)
	}
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(data)
}

// metricValue extracts a single metric value from the exposition text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestConcurrentLoadDuringHotReload hammers batched /v1/assign from 32
// goroutines while the model is hot-reloaded repeatedly; run with -race.
// Afterwards the metrics must be internally consistent.
func TestConcurrentLoadDuringHotReload(t *testing.T) {
	devices, res, m := trainModel(t, 72)
	st, reg := storeRegistry(t, "round", m)
	// A second artifact with the same bases but another creation time:
	// a different digest that labels every point identically, so each
	// retag is a real redeploy.
	m2 := *m
	m2.CreatedUnixNano++
	m2.Seal()
	digest2, err := st.Put(&m2)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	digests := [2]string{store.Digest(m), digest2}
	base, stop := startServer(t, reg)
	defer stop()

	const goroutines = 32
	const perG = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := g % len(devices)
			x := devices[dev]
			vecs := make([][]float64, x.Cols())
			for j := range vecs {
				vecs[j] = x.Col(j, nil)
			}
			for i := 0; i < perG; i++ {
				var out AssignResponse
				raw, _ := json.Marshal(AssignRequest{Points: vecs})
				resp, err := http.Post(base+"/v1/assign", "application/json", bytes.NewReader(raw))
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, data)
					return
				}
				if err := json.Unmarshal(data, &out); err != nil {
					errCh <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				for j, a := range out.Assignments {
					if a.Label != res.Labels[dev][j] {
						errCh <- fmt.Errorf("goroutine %d: point %d served %d, offline %d (model %s)",
							g, j, a.Label, res.Labels[dev][j], out.Model)
						return
					}
				}
			}
		}(g)
	}
	// Redeploy (retag + /v1/reload) while the load is in flight.
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for i := 0; i < 20; i++ {
			if err := st.Tag("round", digests[(i+1)%2]); err != nil {
				t.Errorf("retag: %v", err)
				return
			}
			resp, err := http.Post(base+"/v1/reload", "application/json", nil)
			if err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			var out ReloadResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Errorf("reload status %d: %v", resp.StatusCode, err)
				return
			}
			if len(out.Changed) != 1 || out.Changed[0] != "round" {
				t.Errorf("reload %d changed %v, want [round]", i, out.Changed)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-reloadDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The registry must list every reload, exactly one active.
	models := reg.Models()
	if len(models) != 21 {
		t.Fatalf("registry lists %d loads, want 21", len(models))
	}
	active := 0
	for _, mi := range models {
		if mi.Active {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("%d active models, want 1", active)
	}

	// Metrics consistency: every accepted request finished, none errored,
	// every submitted point was assigned.
	text := fetchMetrics(t, base)
	requests := metricValue(t, text, "fedsc_serve_requests_total")
	if requests != goroutines*perG {
		t.Fatalf("requests_total %d, want %d", requests, goroutines*perG)
	}
	if v := metricValue(t, text, "fedsc_serve_request_errors_total"); v != 0 {
		t.Fatalf("request_errors_total %d", v)
	}
	if v := metricValue(t, text, "fedsc_serve_in_flight"); v != 0 {
		t.Fatalf("in_flight %d after quiescence", v)
	}
	if v := metricValue(t, text, "fedsc_serve_latency_seconds_count"); v != requests {
		t.Fatalf("latency count %d, requests %d", v, requests)
	}
	points := int64(0)
	for g := 0; g < goroutines; g++ {
		points += int64(devices[g%len(devices)].Cols()) * perG
	}
	if v := metricValue(t, text, "fedsc_serve_batch_points_sum"); v != points {
		t.Fatalf("batch points sum %d, want %d", v, points)
	}
}

func TestAssignBadRequests(t *testing.T) {
	_, _, m := trainModel(t, 73)
	reg := NewRegistry()
	if err := reg.SetModel("m1", m); err != nil {
		t.Fatalf("SetModel: %v", err)
	}
	base, stop := startServer(t, reg)
	defer stop()
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both", `{"point": [1], "points": [[1]]}`},
		{"bad json", `{`},
		{"wrong dims", `{"point": [1, 2, 3]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(base+"/v1/assign", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// GET on assign and reload.
	for _, path := range []string{"/v1/assign", "/v1/reload"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	// Reload without a bound store must fail cleanly.
	resp, err := http.Post(base+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload without store: status %d, want 500", resp.StatusCode)
	}
}

// TestAssignOversizedBodyIs413: a body larger than any request the
// batcher could admit (MaxQueue points of the widest served model) is
// refused with 413 while it is read, instead of being decoded in full
// and only then shed with 429.
func TestAssignOversizedBodyIs413(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.PutTagged("alpha", axisModel(t, []int{0, 1})); err != nil {
		t.Fatalf("put: %v", err)
	}
	_, metrics, base, stop := startStoreServer(t, st, BatcherOptions{MaxQueue: 8})
	defer stop()

	// About 40 KB of well-formed JSON against a limit of
	// 8 points · (4+1) floats · 32 bytes + 1 KiB of framing.
	big := make([][]float64, 4096)
	for i := range big {
		big[i] = axisPoint(i % 2)
	}
	raw, err := json.Marshal(AssignRequest{Points: big})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/assign", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("oversized post: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body (%d bytes): status %d, want 413", len(raw), resp.StatusCode)
	}
	if metrics.Shed() != 0 {
		t.Fatalf("oversized body reached admission control (shed %d)", metrics.Shed())
	}

	// A request that fits still answers.
	var out AssignResponse
	if status, body := postJSON(t, base+"/v1/assign", AssignRequest{Point: axisPoint(1)}, &out); status != http.StatusOK {
		t.Fatalf("assign after 413: %d %s", status, body)
	}
	if out.Assignments[0].Label != 1 {
		t.Fatalf("label %d, want 1", out.Assignments[0].Label)
	}
}

// TestServeClosesStalledHeaders: a client that sends part of a request
// line and then stalls must not hold its connection forever; Serve
// closes it once readHeaderTimeout has passed.
func TestServeClosesStalledHeaders(t *testing.T) {
	t.Parallel() // waits out readHeaderTimeout
	base, stop := startServer(t, NewRegistry())
	defer stop()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatalf("set deadline: %v", err)
	}
	// The server may write an error status before closing; either way
	// the read must end at EOF, not at the client's own deadline.
	start := time.Now()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled connection not closed by the server (read %q): %v", reply, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %s, before the header timeout: %q", waited, reply)
	}
}

func TestHealthzBeforeModel(t *testing.T) {
	base, stop := startServer(t, NewRegistry())
	defer stop()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no model: %d, want 503", resp.StatusCode)
	}
}
