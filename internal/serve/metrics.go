package serve

import (
	"io"
	"time"

	"fedsc/internal/obs"
)

// Metrics is the serving tier's metrics sink, rendered in the
// Prometheus text exposition format. Since the obs subsystem landed it
// is a thin facade over an obs.Registry: the instruments live in the
// registry (so a shared registry exposes the serving metrics next to
// the fednet/core/chaos ones on one /metrics endpoint), while this type
// keeps the API the handler, admission gate, and tests were built against.
// All updates are lock-free atomics on the hot path.
type Metrics struct {
	reg         *obs.Registry
	requests    *obs.Counter
	errors      *obs.Counter
	shed        *obs.Counter
	inFlight    *obs.Gauge
	queueDepth  *obs.Gauge
	latency     *obs.Histogram
	batchSize   *obs.Histogram
	assignments *obs.CounterVec
	batches     *obs.CounterVec
}

// NewMetrics returns a metrics sink over a private registry with
// latency buckets spanning 10µs to 10s and request-size buckets spanning
// 1 to 4096 points.
func NewMetrics() *Metrics { return NewMetricsOn(obs.NewRegistry()) }

// NewMetricsOn registers the serving metrics on reg and returns the
// sink. Registration is idempotent, so several components may share
// one registry.
func NewMetricsOn(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg:        reg,
		requests:   reg.Counter("fedsc_serve_requests_total", "Assignment requests accepted."),
		errors:     reg.Counter("fedsc_serve_request_errors_total", "Assignment requests answered with an error."),
		shed:       reg.Counter("fedsc_serve_shed_total", "Assignment requests shed with 429 by admission control."),
		inFlight:   reg.Gauge("fedsc_serve_in_flight", "Requests currently being served."),
		queueDepth: reg.Gauge("fedsc_serve_queue_depth", "Points admitted and not yet answered."),
		latency: reg.Histogram("fedsc_serve_latency_seconds", "Request latency in seconds.",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}),
		batchSize: reg.Histogram("fedsc_serve_batch_points", "Points per scored request.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}),
		assignments: reg.CounterVec("fedsc_serve_assignments_total", "Points assigned, by model.", "model"),
		batches:     reg.CounterVec("fedsc_serve_model_batches_total", "Scored requests, by model.", "model"),
	}
}

// RequestStart marks a request accepted and returns a done func that
// records its latency and error status.
func (m *Metrics) RequestStart() func(err bool) {
	m.requests.Inc()
	m.inFlight.Add(1)
	start := time.Now()
	return func(err bool) {
		m.latency.Observe(time.Since(start).Seconds())
		if err {
			m.errors.Inc()
		}
		m.inFlight.Add(-1)
	}
}

// ObserveBatch records one scored request of b points under model name.
func (m *Metrics) ObserveBatch(name string, b int) {
	m.batchSize.Observe(float64(b))
	m.assignments.With(name).Add(int64(b))
	m.batches.With(name).Inc()
}

// ObserveShed marks one request rejected by admission control (its
// points would have passed MaxQueue; the client saw 429).
func (m *Metrics) ObserveShed() { m.shed.Inc() }

// QueueAdd moves the points-in-flight gauge by n points.
func (m *Metrics) QueueAdd(n int64) { m.queueDepth.Add(n) }

// Requests returns the number of accepted requests.
func (m *Metrics) Requests() int64 { return m.requests.Value() }

// Shed returns the number of requests rejected by admission control.
func (m *Metrics) Shed() int64 { return m.shed.Value() }

// QueueDepth returns the points currently admitted and not yet answered.
func (m *Metrics) QueueDepth() int64 { return m.queueDepth.Value() }

// Assigned returns the total points assigned across all models.
func (m *Metrics) Assigned() int64 { return m.assignments.Total() }

// Batches returns the number of scored requests.
func (m *Metrics) Batches() int64 { return m.batchSize.Count() }

// WritePrometheus renders every metric on the sink's registry in the
// text exposition format — including any non-serving metrics other
// subsystems registered on a shared registry.
func (m *Metrics) WritePrometheus(w io.Writer) { m.reg.WritePrometheus(w) }
