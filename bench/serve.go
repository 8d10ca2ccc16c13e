package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/serve"
	"fedsc/internal/synth"
)

// serve-assign shape and schedule. The served model comes from a real
// Fed-SC round of 96 devices over 16 four-dimensional subspaces of
// R^64; every request carries 8 points. Traffic goes through 2
// keep-alive connections: an open loop at loRate, then at hiRate with
// the model hot-reloaded twice a second, then both connections sending
// back to back. The open-loop rates are in reference requests per
// second (see clock.go), so each phase offers the same share of the
// machine's capacity at any speed; at fixed wall rates the p99 spread
// 35% between runs, scaled 3%. Latencies and the back-to-back
// throughput stay in wall units: they are mostly the batcher's wait,
// timer wake-ups and loopback round trips, which do not follow the
// yardstick, and scaling them by it widened their spread.
const (
	serveAmbient  = 64
	serveL        = 16
	servePoints   = 8
	serveConns    = 2
	servePool     = 1024
	loRate        = 400.0
	hiRate        = 1000.0
	reloadPeriod  = 500 * time.Millisecond
	lateThreshold = time.Millisecond
	opHeader      = "X-Bench-Op"
	// saturationCap bounds the requests one second of back-to-back
	// sending may take, far above what two connections complete.
	saturationCap = 8000
)

// request is one pooled /v1/assign call with its expected answer.
type request struct {
	body   []byte
	points *mat.Dense
	want   []int // labels offline Engine.Assign gives the points
	truth  []int // the points' true subspaces
}

// serveAssign is the serve-assign workload: an in-process serve.Handler
// behind a loopback HTTP server.
type serveAssign struct {
	model   *core.Model
	engine  *serve.Engine
	reg     *serve.Registry
	metrics *serve.Metrics
	batcher *serve.Batcher
	handler *benchHandler
	srv     *http.Server
	srvDone chan error
	client  *http.Client
	url     string
	reqs    []request
	sent    int // requests issued so far; picks the next pooled request
}

func setupServeAssign(e *env) (instance, error) {
	rng := e.rng()
	s := synth.RandomSubspaces(serveAmbient, 4, serveL, rng)
	in := syntheticRoundOver(s, 96, 2, 20, rng)
	res := core.Run(in.devices, serveL, core.Options{Local: core.LocalOptions{UseEigengap: true}, Obs: obs.NewRegistry()}, rng)
	model, err := core.ModelFromResult(res, serveL, 0, core.CentralSSC)
	if err != nil {
		return nil, fmt.Errorf("build model: %w", err)
	}
	engine, err := serve.NewEngine(model)
	if err != nil {
		return nil, err
	}
	sa := &serveAssign{model: model, engine: engine, reg: serve.NewRegistry(), metrics: serve.NewMetrics(), srvDone: make(chan error, 1)}
	for i := 0; i < servePool; i++ {
		r, err := newRequest(s, engine, rng)
		if err != nil {
			return nil, err
		}
		sa.reqs = append(sa.reqs, r)
	}
	if err := sa.reg.SetModel("fedsc", model); err != nil {
		return nil, err
	}
	sa.batcher = serve.NewBatcher(sa.reg, sa.metrics, serve.BatcherOptions{})
	sa.handler = &benchHandler{next: serve.NewHandler(sa.reg, sa.batcher, sa.metrics), metrics: sa.metrics}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sa.batcher.Stop()
		return nil, err
	}
	sa.url = "http://" + ln.Addr().String() + "/v1/assign"
	sa.srv = &http.Server{Handler: sa.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { sa.srvDone <- sa.srv.Serve(ln) }()
	sa.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
	for i := 0; i < 50; i++ {
		if _, err := sa.post(sa.nextRequest(), nil); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up request: %w", err), sa.close())
		}
	}
	return sa, nil
}

// newRequest draws servePoints points from random subspaces and
// records the labels the offline engine gives them.
func newRequest(s synth.Subspaces, engine *serve.Engine, rng *rand.Rand) (request, error) {
	counts := make([]int, s.L())
	for i := 0; i < servePoints; i++ {
		counts[rng.Intn(s.L())]++
	}
	ds := s.SampleCounts(counts, rng)
	want, _, err := engine.Assign(ds.X)
	if err != nil {
		return request{}, err
	}
	pts := make([][]float64, ds.X.Cols())
	for j := range pts {
		pts[j] = ds.X.Col(j, nil)
	}
	body, err := json.Marshal(serve.AssignRequest{Points: pts})
	if err != nil {
		return request{}, err
	}
	return request{body: body, points: ds.X, want: want, truth: ds.Labels}, nil
}

func (sa *serveAssign) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sa.srv.Shutdown(ctx)
	if serr := <-sa.srvDone; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	sa.batcher.Stop()
	sa.client.CloseIdleConnections()
	return err
}

func (sa *serveAssign) nextRequest() *request {
	r := &sa.reqs[sa.sent%len(sa.reqs)]
	sa.sent++
	return r
}

// post sends one request and checks the answer against the offline
// engine; op, when set, is the request's span.
func (sa *serveAssign) post(r *request, op *obs.Span) ([]int, error) {
	req, err := http.NewRequest(http.MethodPost, sa.url, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != nil {
		id := sa.handler.register(op)
		defer sa.handler.unregister(id)
		req.Header.Set(opHeader, id)
	}
	resp, err := sa.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ar serve.AssignResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return nil, err
	}
	labels := make([]int, len(ar.Assignments))
	for i, a := range ar.Assignments {
		labels[i] = a.Label
	}
	if !sameInts(labels, r.want) {
		return nil, fmt.Errorf("served labels %v, offline engine gives %v", labels, r.want)
	}
	return labels, nil
}

// sent is one request of an open-loop segment.
type sent struct {
	lateMS float64 // send time minus due time
	latMS  float64 // completion minus due time
	done   time.Time
	labels []int
	err    error
	req    *request
}

// segment is one open-loop stretch at a fixed rate.
type segment struct {
	rate    float64 // offered rate, requests per wall second
	start   time.Time
	reqs    []sent
	reloads int
}

// ok returns the successful requests' latencies, ms.
func (s *segment) ok() []float64 {
	var lat []float64
	for _, r := range s.reqs {
		if r.err == nil {
			lat = append(lat, r.latMS)
		}
	}
	return lat
}

// late returns every request's lateness, ms.
func (s *segment) late() []float64 {
	late := make([]float64, len(s.reqs))
	for i, r := range s.reqs {
		late[i] = r.lateMS
	}
	return late
}

// achieved is the completed request rate per wall second, from the
// first due time to the last completion.
func (s *segment) achieved() float64 {
	var last time.Time
	n := 0
	for _, r := range s.reqs {
		if r.err == nil {
			n++
			if r.done.After(last) {
				last = r.done
			}
		}
	}
	if !last.After(s.start) {
		return 0
	}
	return float64(n) / last.Sub(s.start).Seconds()
}

// openLoop sends n requests at rate per second through serveConns
// senders, each taking the next due request when it is free, so a
// stall delays every request queued behind it. Latency is timed from
// the due time. A rate of 0 sends back to back and, with until set,
// stops taking requests at until. With reload set the model is
// hot-reloaded every reloadPeriod while the segment runs. With tr set
// every request and reload runs under a span.
func (sa *serveAssign) openLoop(rate float64, n int, until time.Time, reload bool, tr *obs.Tracer) *segment {
	var period time.Duration
	if rate > 0 {
		period = time.Duration(float64(time.Second) / rate)
	}
	s := &segment{rate: rate, reqs: make([]sent, n)}
	for i := range s.reqs {
		s.reqs[i].req = sa.nextRequest()
	}
	var next atomic.Int64
	s.start = time.Now().Add(time.Millisecond)
	stop := make(chan struct{})
	reloads := make(chan int, 1)
	var senders sync.WaitGroup
	senders.Add(serveConns)
	for c := 0; c < serveConns; c++ {
		go func() {
			defer senders.Done()
			for {
				if !until.IsZero() && time.Now().After(until) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := s.start.Add(time.Duration(i) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				op := tr.Start("op")
				labels, err := sa.post(s.reqs[i].req, op)
				op.End()
				done := time.Now()
				r := &s.reqs[i]
				r.lateMS, r.latMS = ms(start.Sub(due)), ms(done.Sub(due))
				r.done, r.labels, r.err = done, labels, err
			}
		}()
	}
	go func() {
		count := 0
		defer func() { reloads <- count }()
		if !reload {
			return
		}
		tick := time.NewTicker(reloadPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sp := tr.Start("serve.reload")
				err := sa.reg.SetModel("fedsc", sa.model)
				sp.End()
				if err == nil {
					count++
				}
			}
		}
	}()
	senders.Wait()
	close(stop)
	s.reloads = <-reloads
	s.reqs = s.reqs[:min(n, int(next.Load()))]
	return s
}

// offer sends refRate reference requests per second for dur, as
// segments of at most seg each, re-timing the yardstick before each.
// With -ops every segment sends exactly that many requests instead.
func (sa *serveAssign) offer(b budget, refRate float64, dur, seg time.Duration, reload bool, tr *obs.Tracer) []*segment {
	var segs []*segment
	for left := dur; left > 0; left -= seg {
		b.clock.sample()
		rate := refRate * b.clock.recentFactor()
		n := b.ops
		if n == 0 {
			n = max(1, int(math.Round(rate*min(seg, left).Seconds())))
		}
		segs = append(segs, sa.openLoop(rate, n, time.Time{}, reload, tr))
	}
	return segs
}

// saturate sends back to back on both connections for dur, in segments
// of at most a second, and returns the segments and their median
// throughput in requests per second. With only two requests in flight,
// an open loop faster than this rate builds a backlog that never
// drains. With -ops every segment sends exactly that many requests
// instead.
func (sa *serveAssign) saturate(b budget, dur time.Duration) ([]*segment, float64) {
	var segs []*segment
	var rates []float64
	for left := dur; left > 0; left -= time.Second {
		n, until := b.ops, time.Time{}
		if n == 0 {
			n, until = saturationCap, time.Now().Add(min(time.Second, left))
		}
		s := sa.openLoop(0, n, until, false, nil)
		segs = append(segs, s)
		rates = append(rates, s.achieved())
	}
	return segs, median(rates)
}

// record counts segments' requests and failures into out.
func record(out *outcome, segs []*segment, what string) {
	for _, s := range segs {
		out.attempted += len(s.reqs)
		for _, r := range s.reqs {
			if r.err != nil {
				out.fail("%s at %.0f req/s: %v", what, s.rate, r.err)
			}
		}
	}
}

// measure offers 35% of the run at loRate, 35% at hiRate with
// reloads, and saturates both connections for the rest.
func (sa *serveAssign) measure(b budget, out *outcome) error {
	phase := b.seconds * 35 / 100
	lo := sa.offer(b, loRate, phase, time.Second, false, nil)
	record(out, lo, "low-rate request")
	hi := sa.offer(b, hiRate, phase, time.Second, true, nil)
	record(out, hi, "high-rate request")
	sat, capacity := sa.saturate(b, b.seconds-2*phase)
	record(out, sat, "back-to-back request")
	reloads := 0
	var loLat, hiLat, hiP99 []float64
	var truth, labels []int
	for _, s := range lo {
		loLat = append(loLat, s.ok()...)
	}
	for _, s := range hi {
		reloads += s.reloads
		hiLat = append(hiLat, s.ok()...)
		hiP99 = append(hiP99, quantile(s.ok(), 0.99))
	}
	if phase >= 2*reloadPeriod && reloads == 0 {
		out.fail("no model reload landed during the high-rate phase")
	}
	for _, s := range append(lo, hi...) {
		for _, r := range s.reqs {
			if r.err == nil {
				truth = append(truth, r.req.truth...)
				labels = append(labels, r.labels...)
			}
		}
	}
	out.values["op_p50_ms"] = median(loLat)
	out.values["op_tail_ms"] = median(hiP99)
	out.values["ops_per_s"] = capacity
	out.note("p99 %.3f ms at %.0f req/s; p50 %.3f ms at %.0f req/s with %d reloads",
		quantile(loLat, 0.99), loRate, median(hiLat), hiRate, reloads)
	if len(truth) > 0 {
		acc := metrics.Accuracy(truth, labels)
		out.values["acc_pct"] = acc
		if acc < 90 {
			out.fail("served accuracy %.2f%% is below the 90%% floor", acc)
		}
	}
	return nil
}

// trace alternates untraced and traced half-second segments at hiRate
// with reloads, one pair per second of the run (or -ops pairs). Traced
// requests run under an "op" span with the handler's "serve.handler"
// span inside; afterwards each traced request's points are scored again
// by the engine alone.
func (sa *serveAssign) trace(b budget, tr *obs.Tracer, out *outcome) error {
	k := newKernels()
	var mem memDelta
	var untraced, traced, late []float64
	var achieved, target, wallMS float64
	assigned0, batches0, shed0, req0 := sa.metrics.Assigned(), sa.metrics.Batches(), sa.metrics.Shed(), sa.metrics.Requests()
	const chunk = 500 * time.Millisecond
	pairs := b.ops
	if pairs == 0 {
		pairs = max(1, int(b.seconds/(2*chunk)))
	}
	for i := 0; i < pairs; i++ {
		before := readMem()
		u := sa.offer(b, hiRate, chunk, chunk, true, nil)[0]
		mem.add(before, readMem(), len(u.reqs))
		record(out, []*segment{u}, "untraced request")
		untraced = append(untraced, u.ok()...)
		late = append(late, u.late()...)
		achieved += u.achieved()
		target += u.rate

		start := time.Now()
		t := sa.offer(b, hiRate, chunk, chunk, true, tr)[0]
		wallMS += ms(time.Since(start))
		record(out, []*segment{t}, "traced request")
		traced = append(traced, t.ok()...)
		rp := tr.Start("replay")
		for _, r := range t.reqs {
			k.time(rp, "serve.engine", func() {
				if _, _, err := sa.engine.Assign(r.req.points); err != nil {
					out.fail("engine replay: %v", err)
				}
			})
		}
		rp.End()
	}
	totals, err := totalsOf(tr)
	if err != nil {
		return err
	}
	opMS, handler, engine := totals.get("op").durMS, totals.get("op/serve.handler").durMS, totals.get("replay/serve.engine").durMS
	v := out.values
	v["serve.http.pct"] = pct(opMS-handler, opMS)
	v["serve.handler.pct"] = pct(handler-engine, opMS)
	v["serve.engine.pct"] = pct(engine, opMS)
	v["serve.reload.pct"] = pct(totals.get("serve.reload").durMS, wallMS)
	if n := sa.metrics.Batches() - batches0; n > 0 {
		v["serve.batch_points_mean"] = float64(sa.metrics.Assigned()-assigned0) / float64(n)
	}
	if n := sa.metrics.Requests() - req0; n > 0 {
		v["serve.shed_frac"] = float64(sa.metrics.Shed()-shed0) / float64(n)
	}
	v["serve.queue_depth_max"] = float64(sa.handler.queueMax.Load())
	if len(late) > 0 {
		n := 0
		for _, l := range late {
			if l > ms(lateThreshold) {
				n++
			}
		}
		v["loadgen.late_frac"] = float64(n) / float64(len(late))
	}
	if target > 0 {
		v["loadgen.achieved_frac"] = achieved / target
	}
	overhead(out, traced, untraced)
	mem.fill(out)
	return nil
}

// benchHandler wraps the serving handler: for a request carrying the
// opHeader it opens a "serve.handler" span under that request's op span
// and samples the admission-queue depth.
type benchHandler struct {
	next     http.Handler
	metrics  *serve.Metrics
	mu       sync.Mutex
	ops      map[string]*obs.Span
	seq      int
	queueMax atomic.Int64
}

// register makes op findable by the id it returns.
func (b *benchHandler) register(op *obs.Span) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ops == nil {
		b.ops = map[string]*obs.Span{}
	}
	b.seq++
	id := strconv.Itoa(b.seq)
	b.ops[id] = op
	return id
}

func (b *benchHandler) unregister(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.ops, id)
}

func (b *benchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(opHeader)
	if id == "" {
		b.next.ServeHTTP(w, r)
		return
	}
	b.mu.Lock()
	op := b.ops[id]
	b.mu.Unlock()
	depth := b.metrics.QueueDepth()
	for {
		cur := b.queueMax.Load()
		if depth <= cur || b.queueMax.CompareAndSwap(cur, depth) {
			break
		}
	}
	sp := op.Start("serve.handler")
	defer sp.End()
	b.next.ServeHTTP(w, r)
}
