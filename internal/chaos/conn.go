package chaos

import (
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Conn applies one device's fault script to a wrapped net.Conn. The
// wrapper is itself a net.Conn: deadline decisions stay with the
// caller and are forwarded verbatim to the wrapped connection, while
// a local copy is kept so scripted stalls and black-holes respect the
// caller's budget (a stalled write returns os.ErrDeadlineExceeded at
// the deadline instead of hanging the round).
//
// All fault decisions are pre-seeded: the jitter draws come from the
// per-connection rng handed over by the Schedule, and byte offsets
// are counted locally, so the sequence of injected faults — and, over
// a synchronous transport like net.Pipe, the exact bytes the peer
// observes — is a pure function of (seed, schedule, device, attempt).
type Conn struct {
	inner   net.Conn
	script  Script
	failing bool
	device  int
	attempt int
	trace   *Trace
	// A Duplicate script pairs a connection that holds back its upload
	// with the next one, which frees it.
	holds, frees *dupPair

	mu           sync.Mutex
	held         []byte
	rng          *rand.Rand
	wrote        int64
	read         int64
	readLatency  bool
	writeLatency bool
	readDL       time.Time
	writeDL      time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// dupPair links a withheld upload to the connection that frees it.
type dupPair struct {
	once    sync.Once
	release chan struct{} // closed by the freeing connection
	drained chan struct{} // closed once the holding one is done
}

func newConn(inner net.Conn, script Script, failing bool, device, attempt int, rng *rand.Rand, trace *Trace) *Conn {
	return &Conn{
		inner:   inner,
		script:  script,
		failing: failing,
		device:  device,
		attempt: attempt,
		trace:   trace,
		rng:     rng,
		closed:  make(chan struct{}),
	}
}

// latency returns the scripted one-way delay with its seeded jitter
// draw; the draw is consumed even when the base latency is zero so a
// schedule edit that only changes Latency does not shift later draws.
func (c *Conn) latency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.script.Latency <= 0 && c.script.Jitter <= 0 {
		return 0
	}
	d := c.script.Latency
	if c.script.Jitter > 0 {
		d += time.Duration((2*c.rng.Float64() - 1) * float64(c.script.Jitter))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// stall blocks until the relevant deadline expires or the conn is
// closed, mirroring a black-holed link from the caller's perspective.
func (c *Conn) stall(deadline time.Time) error {
	if deadline.IsZero() {
		<-c.closed
		return net.ErrClosed
	}
	wait := time.Until(deadline)
	if wait < 0 {
		wait = 0
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-timer.C:
		return os.ErrDeadlineExceeded
	}
}

// Read forwards to the wrapped conn after the scripted first-byte
// latency; a black-holed connection never yields a byte.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	withheld := len(c.held) > 0
	first := !c.readLatency
	c.readLatency = true
	blackhole := c.script.Blackhole && c.failing
	dl := c.readDL
	c.mu.Unlock()
	if withheld {
		c.trace.Record(c.device, "attempt %d: reply read failed, upload withheld", c.attempt)
		return 0, ErrDuplicate
	}
	if blackhole {
		c.trace.Record(c.device, "attempt %d: read black-holed", c.attempt)
		return 0, c.stall(dl)
	}
	if first {
		if d := c.latency(); d > 0 {
			c.trace.Record(c.device, "attempt %d: read latency %v", c.attempt, d)
			time.Sleep(d)
		}
	}
	if c.failing && c.script.ResetReadAt > 0 {
		c.mu.Lock()
		left := c.script.ResetReadAt - c.read
		c.mu.Unlock()
		if left <= 0 {
			c.trace.Record(c.device, "attempt %d: read reset at byte %d", c.attempt, c.script.ResetReadAt)
			// The peer must observe a terminated stream; the close
			// error (if any) is subsumed by the reset we are injecting.
			_ = c.Close()
			return 0, ErrReset
		}
		// Deliver exactly ResetReadAt bytes in total; the next call
		// past the offset fires the reset.
		if int64(len(p)) > left {
			p = p[:left]
		}
	}
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write delivers p through the scripted write path: first-byte
// latency, fragmentation into ChunkBytes chunks, a bandwidth-cap
// sleep per chunk, and — on failing attempts — a reset or stall at
// the exact scripted byte offset.
func (c *Conn) Write(p []byte) (int, error) {
	if c.frees != nil {
		// The client writes only after reading its hello, so the
		// withheld upload now lands in the same round.
		c.frees.once.Do(func() {
			c.trace.Record(c.device, "attempt %d: released the withheld upload", c.attempt)
			close(c.frees.release)
		})
	}
	c.mu.Lock()
	first := !c.writeLatency
	c.writeLatency = true
	blackhole := c.script.Blackhole && c.failing
	dl := c.writeDL
	c.mu.Unlock()
	if blackhole {
		c.trace.Record(c.device, "attempt %d: write black-holed at byte %d", c.attempt, c.written())
		return 0, c.stall(dl)
	}
	if first {
		if d := c.latency(); d > 0 {
			c.trace.Record(c.device, "attempt %d: write latency %v", c.attempt, d)
			time.Sleep(d)
		}
	}
	if c.holds != nil {
		c.mu.Lock()
		c.held = append(c.held, p...)
		c.mu.Unlock()
		return len(p), nil
	}
	written := 0
	for written < len(p) {
		chunk := len(p) - written
		if c.script.ChunkBytes > 0 && chunk > c.script.ChunkBytes {
			chunk = c.script.ChunkBytes
		}
		if c.failing {
			if cut, ok := c.cutAt(c.script.ResetWriteAt, chunk); ok {
				if cut > 0 {
					n, err := c.inner.Write(p[written : written+cut])
					c.addWritten(n)
					written += n
					if err != nil {
						return written, err
					}
				}
				c.trace.Record(c.device, "attempt %d: reset at byte %d", c.attempt, c.written())
				// The peer must observe a terminated stream, not a
				// stall; the close error (if any) is subsumed by the
				// reset we are injecting.
				_ = c.Close()
				return written, ErrReset
			}
			if cut, ok := c.cutAt(c.script.StallWriteAfter, chunk); ok {
				if cut > 0 {
					n, err := c.inner.Write(p[written : written+cut])
					c.addWritten(n)
					written += n
					if err != nil {
						return written, err
					}
				}
				c.trace.Record(c.device, "attempt %d: stall at byte %d", c.attempt, c.written())
				c.mu.Lock()
				dl = c.writeDL
				c.mu.Unlock()
				return written, c.stall(dl)
			}
		}
		n, err := c.inner.Write(p[written : written+chunk])
		c.addWritten(n)
		written += n
		if err != nil {
			return written, err
		}
		if c.script.BandwidthBps > 0 && n > 0 {
			time.Sleep(time.Duration(int64(n) * int64(time.Second) / int64(c.script.BandwidthBps)))
		}
	}
	return written, nil
}

// cutAt reports whether the fault at the scripted byte offset fires
// within the next chunk, and how many of the chunk's bytes may still
// be delivered first: exactly offset bytes reach the wire in total.
func (c *Conn) cutAt(offset int64, chunk int) (int, bool) {
	if offset <= 0 {
		return 0, false
	}
	w := c.written()
	if w >= offset {
		return 0, true
	}
	if w+int64(chunk) < offset {
		return 0, false
	}
	return int(offset - w), true
}

func (c *Conn) written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrote
}

func (c *Conn) addWritten(n int) {
	c.mu.Lock()
	c.wrote += int64(n)
	c.mu.Unlock()
}

// Close closes the wrapped conn and wakes any scripted stall.
//
// A connection with a withheld upload stays open underneath: a drain
// goroutine sends the upload once the next connection frees it, reads
// the server's reply until the server closes or the caller's read
// deadline passes, and only then closes the wrapped conn — so the
// server always writes its whole reply, and the bytes it accounts do
// not depend on timing. Closing the freeing connection joins the drain.
func (c *Conn) Close() error {
	err := net.ErrClosed
	first := false
	c.closeOnce.Do(func() {
		close(c.closed)
		first = true
		if c.holds != nil {
			go c.drain()
			err = nil
			return
		}
		err = c.inner.Close()
	})
	if !first {
		return net.ErrClosed
	}
	if c.frees != nil {
		c.frees.once.Do(func() { close(c.frees.release) })
		<-c.frees.drained
	}
	return err
}

// drain finishes a holding connection after its client let go.
func (c *Conn) drain() {
	defer close(c.holds.drained)
	c.mu.Lock()
	held, readDL, writeDL := c.held, c.readDL, c.writeDL
	c.mu.Unlock()
	if len(held) == 0 {
		_ = c.inner.Close() // nothing withheld: nothing to send or drain
		return
	}
	var expire <-chan time.Time
	if !readDL.IsZero() {
		t := time.NewTimer(time.Until(readDL))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-c.holds.release:
		// The caller's own budgets still bound the upload and the reply
		// read, whose content (superseded) is known.
		if c.inner.SetWriteDeadline(writeDL) == nil && c.inner.SetReadDeadline(readDL) == nil {
			if _, err := c.inner.Write(held); err == nil {
				_, _ = io.Copy(io.Discard, c.inner)
			}
		}
	case <-expire:
	}
	_ = c.inner.Close() // the pair is done; nothing acts on the error
}

func (c *Conn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline forwards the caller's deadline decision and keeps a
// local copy so stalls and black-holes honour it.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}
