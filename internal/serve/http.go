package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// AssignRequest is the /v1/assign body: either a single point or a
// batch. Exactly one of Point and Points must be set. Model routes the
// request to a named registry entry; empty picks the default model.
type AssignRequest struct {
	Model  string      `json:"model,omitempty"`
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

// AssignResponse answers /v1/assign.
type AssignResponse struct {
	// Assignments has one entry per submitted point, in order.
	Assignments []Assignment `json:"assignments"`
	// Model names the artifact snapshot that scored the request.
	Model string `json:"model"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler is the serving API:
//
//	POST /v1/assign   assign one point or a batch by minimum residual,
//	                  optionally routed to a named model
//	GET  /v1/models   list loaded model artifacts
//	POST /v1/reload   re-sync from the artifact store and hot-swap
//	                  changed models
//	GET  /healthz     readiness (200 once a model is loaded)
//	GET  /metrics     Prometheus text metrics
//
// Admission control: when the batcher's bounded queue is full, assign
// answers 429 immediately — saturation sheds load instead of growing
// latency without bound. A body too large to ever be admitted is
// refused with 413 before it is decoded (see maxAssignBody).
type Handler struct {
	reg     *Registry
	batcher *Batcher
	metrics *Metrics
	mux     *http.ServeMux
}

// NewHandler wires the API around a registry and its batcher. metrics
// may be shared with the batcher (it usually is).
func NewHandler(reg *Registry, batcher *Batcher, metrics *Metrics) *Handler {
	h := &Handler{reg: reg, batcher: batcher, metrics: metrics, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/assign", h.assign)
	h.mux.HandleFunc("/v1/models", h.models)
	h.mux.HandleFunc("/v1/reload", h.reload)
	h.mux.HandleFunc("/healthz", h.healthz)
	h.mux.HandleFunc("/metrics", h.prometheus)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// An /v1/assign body may spend bytesPerFloat bytes on each coordinate
// (digits, sign, exponent, separator, whitespace) and bodyFraming
// bytes on its keys, model name and outer brackets.
const (
	bytesPerFloat = 32
	bodyFraming   = 1 << 10
)

// maxAssignBody bounds an /v1/assign body by what could ever be
// admitted: at most the batcher's MaxQueue points, each no wider than
// the widest served model (plus one float's worth for its brackets).
// A larger body is refused with 413 before the decoder allocates it.
func (h *Handler) maxAssignBody() int64 {
	perPoint := int64(h.reg.maxAmbient()+1) * bytesPerFloat
	return int64(h.batcher.opts.MaxQueue)*perPoint + bodyFraming
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already on the wire; an encode failure here
	// means the client hung up, and there is no channel left to tell it.
	_ = json.NewEncoder(w).Encode(v)
}

func (h *Handler) assign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	done := h.metrics.RequestStart()
	failed := true
	defer func() { done(failed) }()
	var req AssignRequest
	r.Body = http.MaxBytesReader(w, r.Body, h.maxAssignBody())
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	var vecs [][]float64
	switch {
	case len(req.Point) > 0 && len(req.Points) > 0:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "set point or points, not both"})
		return
	case len(req.Point) > 0:
		vecs = [][]float64{req.Point}
	case len(req.Points) > 0:
		vecs = req.Points
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty request"})
		return
	}
	assignments, model, err := h.batcher.AssignModel(r.Context(), req.Model, vecs)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrOverloaded):
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(h.batcher.RetryAfter()))
		case errors.Is(err, ErrStopped):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			status = http.StatusRequestTimeout
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	failed = false
	writeJSON(w, http.StatusOK, AssignResponse{Assignments: assignments, Model: model})
}

// requireGET enforces the read-only method contract the POST endpoints
// already have for theirs: anything but GET is 405, not a silent 200.
func requireGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return false
	}
	return true
}

func (h *Handler) models(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, h.reg.Models())
}

// ReloadResponse answers /v1/reload: the served model names after the
// sync and the names the sync changed (loaded, replaced, or removed).
type ReloadResponse struct {
	Models  []string `json:"models"`
	Changed []string `json:"changed"`
}

func (h *Handler) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	changed, err := h.reg.Reload()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if changed == nil {
		changed = []string{}
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Models: h.reg.Names(), Changed: changed})
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	if h.reg.Current() == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (h *Handler) prometheus(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	h.metrics.WritePrometheus(w)
}

// readHeaderTimeout is how long Serve waits for a client to finish its
// request headers before closing the connection, so a stalled client
// cannot hold a connection forever.
const readHeaderTimeout = 10 * time.Second

// Serve runs the HTTP server on ln until ctx is cancelled, then shuts it
// down gracefully (in-flight requests get up to grace to finish; zero
// means 5s) and stops the batcher. It returns nil on a clean shutdown.
func Serve(ctx context.Context, ln net.Listener, h *Handler, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		h.batcher.Stop()
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	h.batcher.Stop()
	if errors.Is(err, context.DeadlineExceeded) {
		// Hard stop after the grace period; the Shutdown error already
		// reports the timeout the caller sees.
		_ = srv.Close()
	}
	<-errCh // Serve has returned http.ErrServerClosed
	return err
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM — the
// graceful-shutdown trigger for cmd/fedsc-serve.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
}
