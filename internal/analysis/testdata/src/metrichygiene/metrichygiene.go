// Package metrichygiene is the fixture for the metrichygiene analyzer:
// positive cases register metrics inside loops or request paths, or
// feed a CounterVec label from derived string data; negative cases
// register once at construction time and label from bounded sets.
// BadRetryLoop reproduces the live bug this rule caught in
// the fednet client retry loop.
package metrichygiene

import (
	"fmt"
	"net/http"
	"strconv"

	"fedsc/internal/obs"
)

// BadRetryLoop is the client retry-loop shape: per-attempt registration
// takes the registry mutex every iteration of the retry storm.
func BadRetryLoop(reg *obs.Registry, attempts int) {
	for attempt := 1; attempt <= attempts; attempt++ {
		reg.Counter("fixture_retries_total", "Attempts beyond the first.").Inc()
	}
}

// BadRangeLoop registers per element.
func BadRangeLoop(reg *obs.Registry, shards []int) {
	for range shards {
		reg.Histogram("fixture_shard_seconds", "Per-shard wall time.", nil).Observe(1)
	}
}

// BadHandler registers on the per-request path.
func BadHandler(reg *obs.Registry, w http.ResponseWriter, r *http.Request) {
	reg.Counter("fixture_requests_total", "Requests served.").Inc()
	w.WriteHeader(http.StatusOK)
}

// BadHandlerLit registers inside a request-handling func literal.
func BadHandlerLit(reg *obs.Registry, mux *http.ServeMux) {
	mux.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {
		reg.Gauge("fixture_inflight", "Requests in flight.").Add(1)
	})
}

// BadSprintfLabel derives the label from data: one series per value.
func BadSprintfLabel(vec *obs.CounterVec, shard int) {
	vec.With(fmt.Sprintf("shard-%d", shard)).Inc()
}

// BadStrconvLabel converts request data into a label.
func BadStrconvLabel(vec *obs.CounterVec, status int) {
	vec.With(strconv.Itoa(status)).Inc()
}

// BadConcatLabel builds the label by concatenation.
func BadConcatLabel(vec *obs.CounterVec, name string) {
	vec.With("model-" + name).Inc()
}

// metricsBundle is the sanctioned home for instruments.
type metricsBundle struct {
	requests *obs.Counter
	byModel  *obs.CounterVec
}

// GoodConstructor registers everything once at construction.
func GoodConstructor(reg *obs.Registry) *metricsBundle {
	return &metricsBundle{
		requests: reg.Counter("fixture_requests_total", "Requests served."),
		byModel:  reg.CounterVec("fixture_by_model_total", "Requests per model.", "model"),
	}
}

// GoodHoisted registers above the loop and reuses the instrument.
func GoodHoisted(reg *obs.Registry, attempts int) {
	retries := reg.Counter("fixture_retries_total", "Attempts beyond the first.")
	for attempt := 1; attempt <= attempts; attempt++ {
		retries.Inc()
	}
}

// GoodHandler only increments inside the request path.
func GoodHandler(m *metricsBundle, w http.ResponseWriter, r *http.Request) {
	m.requests.Inc()
	w.WriteHeader(http.StatusOK)
}

// GoodBoundedLabels label from literals and plain identifiers naming
// members of a fixed set.
func GoodBoundedLabels(m *metricsBundle, modelName string) {
	m.byModel.With("default").Inc()
	m.byModel.With(modelName).Inc()
}

// AllowedDynamicRegistration documents the escape hatch, reason
// recorded: a bounded, config-derived set registered per entry.
func AllowedDynamicRegistration(reg *obs.Registry, configured []string) {
	for range configured {
		reg.Counter("fixture_configured_total", "Configured probes.").Inc() //fedsc:allow metrichygiene fixture: set bounded by config, not request data
	}
}
