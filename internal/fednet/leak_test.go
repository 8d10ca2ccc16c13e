package fednet

import (
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"fedsc/internal/core"
)

// waitGoroutines polls until the process goroutine count settles back
// to base+slack, dumping all stacks on timeout. Leaked goroutines are
// invisible to the race detector — a blocked goroutine touches no
// shared memory — so goroutine counting is the runtime complement of
// the goroutineleak analyzer.
func waitGoroutines(t *testing.T, base, slack int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: base %d, now %d\n%s", base, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeReleasesAcceptorGoroutine is the regression test for the
// acceptor leak: Serve leaves the listener open for the caller by
// contract, so before the fix every round parked its acceptor
// goroutine in ln.Accept forever — one leaked goroutine per round on a
// reused listener. The listener is deliberately kept open across the
// assertion window (closing it would have freed the leaked acceptors
// and masked the bug).
func TestServeReleasesAcceptorGoroutine(t *testing.T) {
	devices, _ := fedDevices(12, 2, 3, 1, 2, 6, 42)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	base := runtime.NumGoroutine()

	const rounds = 4
	for i := 0; i < rounds; i++ {
		srv := &Server{L: 3, Expect: 1, Seed: 5}
		clientErr := make(chan error, 1)
		go func() {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			_, err := RunClientDialerWire(dialTCP(ln.Addr().String()), 0, devices[0], core.LocalOptions{UseEigengap: true}, RetryPolicy{}, WireOptions{}, rng)
			clientErr <- err
		}()
		if _, err := srv.Serve(ln); err != nil {
			t.Fatalf("round %d: serve: %v", i, err)
		}
		if err := <-clientErr; err != nil {
			t.Fatalf("round %d: client: %v", i, err)
		}
	}
	// Every per-round goroutine (acceptor included) must be gone while
	// the listener is still open; pre-fix this sits at base+rounds.
	waitGoroutines(t, base, 1, 3*time.Second)
}
