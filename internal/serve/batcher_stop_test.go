package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStopWaitsForInFlightRequests pins the gate's lifecycle: NewBatcher
// starts no goroutine, every Stop caller (not only the first) waits
// until each admitted request has been answered, and an assign after
// Stop gets ErrStopped. A request in flight is held open by admitting
// its points directly, the way AssignModel does before it scores.
func TestStopWaitsForInFlightRequests(t *testing.T) {
	reg, devices, _ := newTestRegistry(t, 31)
	base := runtime.NumGoroutine()
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("NewBatcher started %d goroutines", n-base)
	}

	if err := b.admit(3); err != nil {
		t.Fatalf("admit: %v", err)
	}
	stopped := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			b.Stop()
			stopped <- struct{}{}
		}()
	}
	// Stop must refuse new requests even while it waits.
	vec := devices[0].Col(0, nil)
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, _, err := b.AssignModel(context.Background(), "", [][]float64{vec})
		if errors.Is(err, ErrStopped) {
			break
		}
		if err != nil {
			t.Fatalf("Assign while stopping: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Stop did not refuse new requests")
		}
		runtime.Gosched()
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned with a request still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	b.release(3)
	for i := 0; i < 2; i++ {
		select {
		case <-stopped:
		case <-time.After(3 * time.Second):
			t.Fatal("Stop did not return after the last request was answered")
		}
	}
	b.Stop() // idempotent
	if _, _, err := b.AssignModel(context.Background(), "", [][]float64{vec}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Assign after Stop returned %v, want ErrStopped", err)
	}
}

// TestStopConcurrentWithAssigns hammers Stop against in-flight Assigns
// under the race detector: every Assign must resolve (answer or
// ErrStopped), every Stop must return, and post-Stop Assigns must be
// refused.
func TestStopConcurrentWithAssigns(t *testing.T) {
	reg, devices, _ := newTestRegistry(t, 77)
	b := NewBatcher(reg, NewMetrics(), BatcherOptions{})
	vec := devices[0].Col(0, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := b.AssignModel(context.Background(), "", [][]float64{vec})
			if err != nil && !errors.Is(err, ErrStopped) {
				t.Errorf("Assign: %v", err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Stop()
		}()
	}
	wg.Wait()
	if _, _, err := b.AssignModel(context.Background(), "", [][]float64{vec}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Assign after Stop returned %v, want ErrStopped", err)
	}
}
