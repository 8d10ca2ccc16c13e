// Package goroutineleak is the fixture for the goroutineleak analyzer:
// positive cases spawn goroutines with no provable termination signal;
// negative cases carry one of the sanctioned proofs (ctx.Done,
// done-channel receive, WaitGroup pairing, or a channel handoff the
// spawner drains). BadDrainFireAndForget reproduces the live bug this
// rule first caught in fednet's former duplicate client; BadParamChannelSend
// reproduces the obs.ServeDebug errCh shape.
package goroutineleak

import (
	"context"
	"encoding/gob"
	"net"
	"sync"
)

func work() {}

// BadDrainFireAndForget is the former duplicate client's drain bug: the
// goroutine blocks in Decode with nothing committed to unblocking it.
func BadDrainFireAndForget(conn net.Conn) {
	go func() {
		var reply struct{ N int }
		_ = gob.NewDecoder(conn).Decode(&reply)
		_ = conn.Close()
	}()
}

// BadParamChannelSend is the ServeDebug shape: the channel belongs to
// the caller, so the spawner can prove neither buffering nor a reader.
func BadParamChannelSend(errCh chan<- error, run func() error) {
	go func() {
		errCh <- run()
	}()
}

// BadUnreadLocalChannel makes the channel itself but neither buffers
// nor drains it — the send blocks forever once the function returns.
func BadUnreadLocalChannel(run func() error) {
	errCh := make(chan error)
	go func() {
		errCh <- run()
	}()
}

// BadExternalCallee spawns a body the package cannot inspect.
func BadExternalCallee(conn net.Conn) {
	go conn.Close() //nolint — the point is the unprovable callee
}

// BadLocalFuncVar resolves the body through a local variable and still
// finds no signal inside.
func BadLocalFuncVar() {
	loop := func() {
		for {
			work()
		}
	}
	go loop()
}

// GoodContext checks cancellation: the goroutine exits when the caller
// cancels.
func GoodContext(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				work()
			}
		}
	}()
}

// GoodDoneChannel receives from a broadcast-close stop channel.
func GoodDoneChannel(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				work()
			}
		}
	}()
}

// GoodWaitGroup pairs the goroutine with a waiter.
func GoodWaitGroup() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// GoodBufferedHandoff is the fixed self-hosted-server shape: the buffered send
// completes without a reader, so Serve returning ends the goroutine.
func GoodBufferedHandoff(run func() error) {
	errCh := make(chan error, 1)
	go func() {
		errCh <- run()
	}()
}

// GoodDrainedHandoff sends on an unbuffered channel the spawner
// demonstrably receives from.
func GoodDrainedHandoff(run func() int) int {
	results := make(chan int)
	go func() {
		results <- run()
	}()
	return <-results
}

// GoodClosedDrain is that client's fix shape: the goroutine
// closes a channel the spawner joins on.
func GoodClosedDrain(conn net.Conn) {
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		var reply struct{ N int }
		_ = gob.NewDecoder(conn).Decode(&reply)
	}()
	_ = conn.Close()
	<-drained
}

// GoodHandlerFuncVar is the fednet.Server handle shape: the body lives
// in a local variable and hands its result to a channel the spawning
// function drains in its event loop.
func GoodHandlerFuncVar(conns []net.Conn) {
	arrivals := make(chan net.Conn)
	handle := func(c net.Conn) {
		arrivals <- c
	}
	for _, c := range conns {
		go handle(c)
	}
	for range conns {
		<-arrivals
	}
}

// pool is the serve.Batcher shape: a worker method that selects on a
// stop channel and pairs with the pool's WaitGroup.
type pool struct {
	stop chan struct{}
	wg   sync.WaitGroup
	jobs chan int
}

func (p *pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case j := <-p.jobs:
			_ = j
		}
	}
}

// GoodMethodWorker resolves the method body and finds both signals.
func GoodMethodWorker(p *pool) {
	p.wg.Add(1)
	go p.worker()
}

// AllowedProcessLifetime documents the sanctioned escape hatch: a
// process-lifetime goroutine with the reason written down.
func AllowedProcessLifetime() {
	go func() { //fedsc:allow goroutineleak fixture: deliberate process-lifetime goroutine
		for {
			work()
		}
	}()
}
