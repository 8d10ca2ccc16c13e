package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"fedsc/internal/mat"
)

// FuzzAssign sends arbitrary /v1/assign bodies through the handler over
// a two-model registry with MaxQueue 8. Every body must get 200, 400,
// 413 or 429; a 200 must give each point the label and residual that
// the offline Engine.Assign gives it; and no point may stay in flight.
func FuzzAssign(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"point": [1], "points": [[1]]}`,
		`{`,
		`{"point": [1, 2, 3]}`,
		`{"model": "beta", "point": [0, 1, 0, 0]}`,
		`{"point": [1e200, 0, 0, 0]}`,
		`{"model": "alpha", "points": [[1,0,0,0],[0,1,0,0],[1,0,0,0],[0,1,0,0],[1,0,0,0],[0,1,0,0],[1,0,0,0],[0,1,0,0],[1,0,0,0]]}`,
	} {
		f.Add([]byte(body))
	}
	reg := NewRegistry()
	for _, m := range []struct {
		name string
		perm []int
	}{{"alpha", []int{0, 1}}, {"beta", []int{1, 0}}} {
		if err := reg.SetModel(m.name, axisModel(f, m.perm)); err != nil {
			f.Fatalf("SetModel: %v", err)
		}
	}
	metrics := NewMetrics()
	h := NewHandler(reg, NewBatcher(reg, metrics, BatcherOptions{MaxQueue: 8}), metrics)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)))
		if d := metrics.QueueDepth(); d != 0 {
			t.Fatalf("%d points still in flight after the request", d)
		}
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		// The handler decodes the first JSON value and ignores the rest.
		var req AssignRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the offline decoder refuses: %v", err)
		}
		points := req.Points
		if len(req.Point) > 0 {
			points = [][]float64{req.Point}
		}
		snap := reg.Get(req.Model)
		x := mat.NewDense(snap.Engine.Ambient(), len(points))
		for j, p := range points {
			x.SetCol(j, p)
		}
		labels, residuals, err := snap.Engine.Assign(x)
		if err != nil {
			t.Fatalf("offline assign: %v", err)
		}
		var out AssignResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", rec.Body, err)
		}
		if out.Model != snap.Name || len(out.Assignments) != len(points) {
			t.Fatalf("model %q with %d answers, want %q with %d", out.Model, len(out.Assignments), snap.Name, len(points))
		}
		for j, a := range out.Assignments {
			if a.Label != labels[j] || a.Residual != residuals[j] {
				t.Fatalf("point %d: served (%d, %v), offline (%d, %v)", j, a.Label, a.Residual, labels[j], residuals[j])
			}
		}
	})
}
