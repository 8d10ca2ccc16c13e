package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/synth"
)

// BenchmarkAssignHTTP measures /v1/assign over loopback at serve-assign's
// shape: a model of 16 four-dimensional subspaces of R^64 and requests
// of 8 points. Each sub-benchmark runs that many keep-alive clients,
// each sending its next request as soon as the last one answers, and
// reports requests per second and the median request latency.
//
//	go test ./internal/serve -run '^$' -bench AssignHTTP -benchtime 20000x
func BenchmarkAssignHTTP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := synth.RandomSubspaces(64, 4, 16, rng)
	m, err := core.ModelFromBases(64, s.Bases, nil, core.CentralSSC)
	if err != nil {
		b.Fatalf("ModelFromBases: %v", err)
	}
	reg := NewRegistry()
	if err := reg.SetModel("fedsc", m); err != nil {
		b.Fatalf("SetModel: %v", err)
	}
	bodies := make([][]byte, 64)
	for i := range bodies {
		x := s.Sample(1, rng).X
		pts := make([][]float64, 8)
		for j := range pts {
			pts[j] = x.Col(rng.Intn(x.Cols()), nil)
		}
		if bodies[i], err = json.Marshal(AssignRequest{Points: pts}); err != nil {
			b.Fatalf("marshal: %v", err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	metrics := NewMetrics()
	h := NewHandler(reg, NewBatcher(reg, metrics, BatcherOptions{}), metrics)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, h, 5*time.Second) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			b.Errorf("serve: %v", err)
		}
	}()
	url := "http://" + ln.Addr().String() + "/v1/assign"

	for _, conns := range []int{2, 32} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			client := &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
			}}
			defer client.CloseIdleConnections()
			post := func(body []byte) error {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
				return err
			}
			// Open every connection before the clock starts.
			for i := 0; i < conns; i++ {
				if err := post(bodies[i%len(bodies)]); err != nil {
					b.Fatalf("warm-up: %v", err)
				}
			}
			lat := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, conns)
			b.ResetTimer()
			start := time.Now()
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						t0 := time.Now()
						if err := post(bodies[i%len(bodies)]); err != nil {
							errs <- err
							return
						}
						lat[i] = time.Since(t0)
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatalf("assign: %v", err)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			b.ReportMetric(float64(lat[b.N/2])/float64(time.Millisecond), "p50-ms")
		})
	}
}
