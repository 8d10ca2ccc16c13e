package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fedsc/internal/mat"
)

// ErrStopped is returned by AssignModel after Stop.
var ErrStopped = errors.New("serve: batcher stopped")

// ErrOverloaded is returned by AssignModel when the points in flight would
// pass MaxQueue; the HTTP layer maps it to 429 so saturation sheds load
// instead of stacking latency until timeouts (or memory) give out.
var ErrOverloaded = errors.New("serve: admission queue full")

// Assignment is the answer to one point.
type Assignment struct {
	// Label is the global cluster in [0, L) of minimum projection
	// residual.
	Label int `json:"label"`
	// Residual is ‖x − U Uᵀx‖ against the winning cluster's basis.
	Residual float64 `json:"residual"`
}

// BatcherOptions sizes admission control.
type BatcherOptions struct {
	// MaxQueue bounds the points in flight: a request whose points would
	// push the total past it is rejected with ErrOverloaded (default
	// 4096). It must be at least the largest request a client may send —
	// a single request bigger than MaxQueue can never be admitted.
	MaxQueue int
}

// Batcher is the serving tier's admission gate. Each request is scored
// on its caller's goroutine, as one matrix against one registry
// snapshot; the Batcher bounds the points in flight at MaxQueue, the
// way a counting semaphore does, and fences requests against Stop. It
// keeps the name of the request batcher it replaced because the
// serving binary and the benchmark construct it by that name.
type Batcher struct {
	reg      *Registry
	metrics  *Metrics
	opts     BatcherOptions
	inFlight atomic.Int64 // points admitted and not yet answered

	// mu fences admission against Stop: admit checks stopped and joins
	// wg under the read lock, Stop sets stopped under the write lock, so
	// once Stop holds the lock no request can join wg and its Wait sees
	// every admitted request.
	mu      sync.RWMutex
	stopped bool
	wg      sync.WaitGroup
}

// NewBatcher returns an admission gate over reg that records into
// metrics, which must not be nil. It starts no goroutine; Stop refuses
// further requests and waits for those in flight.
func NewBatcher(reg *Registry, metrics *Metrics, opts BatcherOptions) *Batcher {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 4096
	}
	return &Batcher{reg: reg, metrics: metrics, opts: opts}
}

// retryAfterSeconds estimates how long the points in flight take to
// clear at the measured throughput: assigned points per second of
// request time (busy). The estimate is rounded up to whole seconds (the
// HTTP header grammar) and clamped to [1, 60]: even an empty backlog or
// one with no measurement yet deserves a beat of backoff, and a minute
// caps the hint under a pathological backlog.
func retryAfterSeconds(inFlight, assigned int64, busy float64) int {
	if inFlight <= 0 || assigned <= 0 || busy <= 0 {
		return 1
	}
	secs := math.Ceil(float64(inFlight) * busy / float64(assigned))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}

// RetryAfter reports, in whole seconds, how long an overloaded caller
// should wait before retrying: the points in flight divided by the
// throughput the metrics have measured (points assigned per second of
// request latency).
func (b *Batcher) RetryAfter() int {
	return retryAfterSeconds(b.inFlight.Load(), b.metrics.Assigned(), b.metrics.latency.Sum())
}

// Stop refuses new requests, which then get ErrStopped, and returns
// once every admitted request has been answered. It is idempotent, and
// every caller, not only the first, waits.
func (b *Batcher) Stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.wg.Wait()
}

// admit reserves n points in flight, or reports ErrStopped or
// ErrOverloaded. Every admitted request calls release exactly once.
func (b *Batcher) admit(n int64) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.stopped {
		return ErrStopped
	}
	if b.inFlight.Add(n) > int64(b.opts.MaxQueue) {
		b.inFlight.Add(-n)
		b.metrics.ObserveShed()
		return ErrOverloaded
	}
	b.wg.Add(1)
	b.metrics.QueueAdd(n)
	return nil
}

func (b *Batcher) release(n int64) {
	b.inFlight.Add(-n)
	b.metrics.QueueAdd(-n)
	b.wg.Done()
}

// AssignModel scores one group of points (each of length ambient) as a
// unit against the named model (empty = default route) and returns
// their assignments plus the name of the snapshot that scored them. It
// resolves the snapshot once, so every point is answered by one
// immutable engine even while reloads land. When the points in flight
// would pass MaxQueue it fails fast with ErrOverloaded.
func (b *Batcher) AssignModel(ctx context.Context, model string, vecs [][]float64) ([]Assignment, string, error) {
	if len(vecs) == 0 {
		return nil, "", fmt.Errorf("serve: empty request")
	}
	n := int64(len(vecs))
	if err := b.admit(n); err != nil {
		return nil, "", err
	}
	defer b.release(n)
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	snap := b.reg.Get(model)
	if snap == nil {
		if model != "" {
			return nil, "", fmt.Errorf("serve: unknown model %q", model)
		}
		return nil, "", fmt.Errorf("serve: no model loaded")
	}
	ambient := snap.Engine.Ambient()
	x := mat.NewDense(ambient, len(vecs))
	for j, v := range vecs {
		if len(v) != ambient {
			return nil, "", fmt.Errorf("serve: point has %d dims, model expects %d", len(v), ambient)
		}
		x.SetCol(j, v)
	}
	labels, residuals, err := snap.Engine.Assign(x)
	if err != nil {
		return nil, "", err
	}
	for j, r := range residuals {
		// JSON has no infinity: a point whose squared norm overflows
		// must be refused here, or its 200 would carry no body.
		if math.IsInf(r, 1) {
			return nil, "", fmt.Errorf("serve: point %d is too large to score", j)
		}
	}
	b.metrics.ObserveBatch(snap.Name, len(vecs))
	out := make([]Assignment, len(vecs))
	for j := range out {
		out[j] = Assignment{Label: labels[j], Residual: residuals[j]}
	}
	return out, snap.Name, nil
}
