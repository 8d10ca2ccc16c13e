package chaos_test

import (
	"encoding/gob"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/fednet"
)

// TestDuplicateJoinsDrain: a Duplicate script's holding connection
// outlives the client's Close, so its drain goroutine must be joined
// before the client returns. The fake server completes the exchange on
// the freeing connection and goes silent on the holding one — the
// shape of a round that aborts before the reply pass — so the drain
// ends only at its reply deadline, and only the join in the freeing
// connection's Close has the goroutine count back at baseline the
// moment the client returns.
func TestDuplicateJoinsDrain(t *testing.T) {
	devices := chaosDevices(1, 43)
	base := runtime.NumGoroutine()

	serverA, clientA := net.Pipe()
	serverB, clientB := net.Pipe()
	defer func() {
		_ = serverA.Close() // teardown
		_ = serverB.Close() // teardown
	}()
	conns := make(chan net.Conn, 2)
	conns <- clientA
	conns <- clientB
	sched := &chaos.Schedule{Seed: 1, Devices: map[int]chaos.Script{0: {Duplicate: true}}, Trace: chaos.NewTrace()}
	dial := sched.Dialer(0, func() (net.Conn, error) { return <-conns, nil })

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Both hellos first: the withheld upload on A goes out only once
		// the client read B's hello. Then read both uploads, answer B,
		// and stay silent on A.
		if err := gob.NewEncoder(serverA).Encode(fednet.RoundHello{Nonce: 7}); err != nil {
			t.Errorf("hello A: %v", err)
			return
		}
		if err := gob.NewEncoder(serverB).Encode(fednet.RoundHello{Nonce: 7}); err != nil {
			t.Errorf("hello B: %v", err)
			return
		}
		var up fednet.SampleUpload
		if err := gob.NewDecoder(serverA).Decode(&up); err != nil || up.Attempt != 1 {
			t.Errorf("upload A: attempt %d, %v", up.Attempt, err)
			return
		}
		if err := gob.NewDecoder(serverB).Decode(&up); err != nil || up.Attempt != 2 {
			t.Errorf("upload B: attempt %d, %v", up.Attempt, err)
			return
		}
		if err := gob.NewEncoder(serverB).Encode(fednet.AssignmentReply{Assignments: make([]int, up.Cols)}); err != nil {
			t.Errorf("reply B: %v", err)
		}
	}()

	policy := fednet.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, ReplyTimeout: 500 * time.Millisecond}
	res, err := fednet.RunClientDialerWire(dial, 0, devices[0], core.LocalOptions{UseEigengap: true},
		policy, fednet.WireOptions{}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("duplicate client: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("client reports %d attempts, want 2", res.Attempts)
	}
	<-done
	// Far shorter than the 500ms reply deadline: without the join the
	// drain is still parked reading A.
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: base %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
