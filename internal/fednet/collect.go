package fednet

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsc/internal/obs"
)

// The one-shot round and every distributed-SVD iteration share one
// wire shape — hello, one upload per device, reply — so both servers
// collect through one collector: it owns the acceptor, the shared
// connection deadline, the upload handler, highest-attempt dedup, and
// the reply fan-out. The protocols differ only in their collectPolicy.

// collectPolicy is what distinguishes the two protocols' collects.
type collectPolicy struct {
	// expect is the number of distinct devices a complete collect pools.
	expect int
	// wait, when positive, arms the collect timer and bounds each reply.
	wait time.Duration
	// grace marks the one-shot round. Its timer starts at the first
	// accepted connection and, when it fires, gives in-flight uploads
	// one more wait, then closes with whoever made it (at least
	// minClients); without a timer, rejected connections count toward
	// expect. DSVD's timer starts with the collect and aborts: dropping
	// a device would change the operator being decomposed.
	grace          bool
	minClients     int
	codecs         []WireCodec
	maxUploadBytes int64
}

// clientState is one accepted connection's protocol state.
type clientState struct {
	conn    net.Conn
	enc     *gob.Encoder
	upload  SampleUpload
	decoded bool      // upload decoded, so its DeviceID is real
	values  []float64 // the payload, decoded once the upload checked out
	err     error
}

// who names the connection in failure reports: before its upload
// decoded, a connection's zero DeviceID would blame device 0.
func (c *clientState) who() string {
	if !c.decoded {
		return "unidentified connection"
	}
	return fmt.Sprintf("device %d", c.upload.DeviceID)
}

// collector runs the collects of one Serve call over its listener.
type collector struct {
	ln       net.Listener
	pol      collectPolicy
	up, down atomic.Int64 // gob bytes received and sent, failed attempts included

	accepted      chan net.Conn
	acceptErr     chan error
	acceptFailure error
	done, joined  chan struct{}

	// dl is the deadline every open connection carries: zero while
	// collecting, the grace deadline once the straggler timer fired.
	// Handlers apply it under dlMu, so a cut is never overwritten by a
	// handler that read the older value.
	dlMu sync.Mutex
	dl   time.Time
}

// newCollector starts one acceptor for the whole Serve call — DSVD
// devices dial back every iteration, so connections keep arriving
// across collects.
func newCollector(ln net.Listener, pol collectPolicy) *collector {
	c := &collector{
		ln: ln, pol: pol,
		accepted:  make(chan net.Conn),
		acceptErr: make(chan error, 1),
		done:      make(chan struct{}),
		joined:    make(chan struct{}),
	}
	go c.accept()
	return c
}

func (c *collector) accept() {
	defer close(c.joined)
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			c.acceptErr <- err // buffered for this one send
			return
		}
		select {
		case c.accepted <- conn:
		case <-c.done:
			// Serve is over; a Close error on a refused late connection
			// has no one left to report to.
			_ = conn.Close()
			return
		}
	}
}

// close stops the acceptor and hands the listener back open. The
// acceptor may be blocked in Accept with no connection coming, so a
// listener with deadline support (TCP included) is poked awake, the
// goroutine joined, and the deadline cleared.
func (c *collector) close() {
	close(c.done)
	if d, ok := c.ln.(interface{ SetDeadline(time.Time) error }); ok {
		if d.SetDeadline(time.Now()) == nil {
			<-c.joined
		}
		_ = d.SetDeadline(time.Time{})
	}
}

// round is one collect's outcome: the winning upload per device and
// every connection that lost — rejected, timed out, or superseded.
type round struct {
	byDevice map[int]*clientState
	failed   []*clientState
	retries  int
}

// ids returns the pooled devices in ascending order, the pooling order
// both protocols' determinism contracts fix.
func (r *round) ids() []int {
	ids := make([]int, 0, len(r.byDevice))
	for id := range r.byDevice {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// add files one resolved connection. A re-upload replaces the earlier
// attempt — pooling both would corrupt the TSC q-rule and the labels.
// The highest attempt wins (ties go to the newer arrival), so a slow
// handler delivering a dead first attempt late cannot evict the live
// retry, and dedup is independent of arrival interleaving.
func (r *round) add(c *clientState) {
	id := c.upload.DeviceID
	prev, ok := r.byDevice[id]
	switch {
	case c.err != nil:
		r.failed = append(r.failed, c)
	case !ok:
		r.byDevice[id] = c
	default:
		stale := prev
		if c.upload.Attempt < prev.upload.Attempt {
			stale = c
		} else {
			r.byDevice[id] = c
		}
		stale.err = fmt.Errorf("fednet: superseded by a newer upload from device %d", id)
		r.failed = append(r.failed, stale)
		r.retries++
	}
}

// losers returns every connection that lost or whose reply failed.
func (r *round) losers() []*clientState {
	out := append([]*clientState(nil), r.failed...)
	for _, id := range r.ids() {
		if c := r.byDevice[id]; c.err != nil {
			out = append(out, c)
		}
	}
	return out
}

// failures lists one "<who>: <err>" line per loser, sorted so replays
// of a seeded round agree.
func (r *round) failures() []string {
	var out []string
	for _, c := range r.losers() {
		out = append(out, fmt.Sprintf("%s: %v", c.who(), c.err))
	}
	sort.Strings(out)
	return out
}

// close closes every connection of an aborted round: the devices see
// the broken pipe, and their Close errors carry no further signal.
func (r *round) close() {
	for _, id := range r.ids() {
		_ = r.byDevice[id].conn.Close()
	}
	for _, c := range r.failed {
		_ = c.conn.Close()
	}
}

// collect runs one collect. Every accepted connection gets hello; its
// upload must echo nonce, use an advertised codec, and pass Validate
// and check (when non-nil). The collect is complete once every expected
// device is pooled and no accepted connection is in flight, so a retry
// or duplicate racing the last upload resolves through dedup instead
// of being cut off; under grace, also once the grace period drained the
// in-flight uploads. Each resolved connection leaves a zero-width
// "upload" span under parent. On error every connection is closed; the
// error lacks the "fednet: " prefix so each protocol can say where.
func (c *collector) collect(parent *obs.Span, hello any, nonce int64, check func(SampleUpload) error) (*round, error) {
	rd := &round{byDevice: map[int]*clientState{}}
	pending := map[*clientState]bool{}
	arrivals := make(chan *clientState)
	c.cut(nil, time.Time{})
	var timer <-chan time.Time
	if c.pol.wait > 0 && !c.pol.grace {
		timer = time.After(c.pol.wait)
	}
	graceOn := false
	abort := func(err error) (*round, error) {
		rd.close()
		for p := range pending {
			_ = p.conn.Close() // unblocks the handler; the abort is the error
		}
		for len(pending) > 0 {
			delete(pending, <-arrivals)
		}
		return nil, err
	}
	for {
		pooled := len(rd.byDevice)
		if c.pol.grace && c.pol.wait <= 0 {
			pooled += len(rd.failed)
		}
		if len(pending) == 0 {
			if pooled >= c.pol.expect || graceOn {
				return rd, nil
			}
			if c.acceptFailure != nil {
				return abort(fmt.Errorf("accept: %w", c.acceptFailure))
			}
		}
		select {
		case conn := <-c.accepted:
			st := &clientState{conn: conn, enc: gob.NewEncoder(metered{conn, &c.up, &c.down})}
			pending[st] = true
			go func() {
				st.err = c.receive(st, hello, nonce, check)
				arrivals <- st
			}()
			if c.pol.wait > 0 && timer == nil && !graceOn {
				timer = time.After(c.pol.wait)
			}
		case st := <-arrivals:
			delete(pending, st)
			sp := parent.Start("upload", obs.Int("device", st.upload.DeviceID), obs.Int("attempt", st.upload.Attempt))
			if st.err != nil {
				sp.SetAttr("err", st.err.Error())
			}
			sp.End()
			rd.add(st)
		case err := <-c.acceptErr:
			c.acceptFailure = err
		case <-timer:
			timer = nil
			if !c.pol.grace {
				return abort(fmt.Errorf("only %d of %d devices reported before the timeout", len(rd.byDevice), c.pol.expect))
			}
			if got := len(rd.byDevice) + len(pending); got < c.pol.minClients {
				return abort(fmt.Errorf("only %d of minimum %d devices connected before the straggler timeout", got, c.pol.minClients))
			}
			// A bounded grace period, so a stalled device cannot hold the
			// round hostage; retries arriving meanwhile are still admitted.
			graceOn = true
			c.cut(pending, time.Now().Add(c.pol.wait))
		}
	}
}

// receive runs the server half of one exchange up to the upload: send
// hello, decode the upload under the size limit, check it, and decode
// its payload.
func (c *collector) receive(st *clientState, hello any, nonce int64, check func(SampleUpload) error) error {
	if err := c.applyDeadline(st.conn); err != nil {
		return fmt.Errorf("fednet: set deadline: %w", err)
	}
	if err := st.enc.Encode(hello); err != nil {
		return fmt.Errorf("fednet: send hello: %w", err)
	}
	var r io.Reader = metered{st.conn, &c.up, &c.down}
	var limited *io.LimitedReader
	if c.pol.maxUploadBytes > 0 {
		limited = &io.LimitedReader{R: r, N: c.pol.maxUploadBytes + 1}
		r = limited
	}
	if err := gob.NewDecoder(r).Decode(&st.upload); err != nil {
		if limited != nil && limited.N <= 0 {
			return fmt.Errorf("fednet: upload exceeds the %d-byte limit", c.pol.maxUploadBytes)
		}
		return fmt.Errorf("fednet: decode upload: %w", err)
	}
	st.decoded = true
	u := st.upload
	if u.Nonce != nonce {
		return fmt.Errorf("fednet: device %d echoed a stale round nonce", u.DeviceID)
	}
	if !codecOffered(c.pol.codecs, u.codec()) {
		return fmt.Errorf("fednet: device %d uploaded with unadvertised codec %q", u.DeviceID, u.codec())
	}
	if err := u.Validate(); err != nil {
		return err
	}
	if check != nil {
		if err := check(u); err != nil {
			return err
		}
	}
	// Validate pinned the payload shape, so this decode cannot fail.
	var err error
	st.values, err = u.Samples()
	return err
}

func (c *collector) applyDeadline(conn net.Conn) error {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	return conn.SetDeadline(c.dl)
}

// cut moves the shared deadline and re-arms every pending connection
// with it, so stalled uploads resolve instead of holding the round.
func (c *collector) cut(pending map[*clientState]bool, dl time.Time) {
	c.dlMu.Lock()
	c.dl = dl
	c.dlMu.Unlock()
	for p := range pending {
		if err := c.applyDeadline(p.conn); err != nil {
			// The handler owns p until it arrives, and a transport that
			// rejects deadlines fails its decode once closed.
			_ = p.conn.Close()
		}
	}
}

// reply answers every connection of rd with msg's message — pooled
// devices in ascending order, then the rejected ones (err set) — and
// closes each. Replies get a fresh write budget, as the grace deadline
// may be past; a failed reply is recorded on its connection.
func (c *collector) reply(rd *round, msg func(*clientState) any) {
	dl := time.Time{}
	if c.pol.wait > 0 {
		dl = time.Now().Add(c.pol.wait)
	}
	send := func(st *clientState) {
		m := msg(st)
		if err := st.conn.SetDeadline(dl); err != nil && st.err == nil {
			st.err = fmt.Errorf("fednet: set reply deadline: %w", err)
		}
		if err := st.enc.Encode(m); err != nil && st.err == nil {
			st.err = fmt.Errorf("fednet: reply: %w", err)
		}
		if err := st.conn.Close(); err != nil && st.err == nil {
			st.err = fmt.Errorf("fednet: close: %w", err)
		}
	}
	for _, id := range rd.ids() {
		send(rd.byDevice[id])
	}
	for _, st := range rd.failed {
		send(st)
	}
}
