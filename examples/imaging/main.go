// Imaging scenario: object images captured by a fleet of edge cameras
// (the simulated augmented-COIL100 generator), each camera seeing only a
// handful of object types. The fleet clusters ALL images by object with
// a single round of communication, over a real TCP deployment of the
// Fed-SC protocol running on localhost.
//
//	go run ./examples/imaging
//
// Demonstrates: the fednet client/server transport, Fed-SC (TSC) at the
// server, and robustness when the uplink adds channel noise.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"fedsc/internal/core"
	"fedsc/internal/datasets"
	"fedsc/internal/fednet"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

func main() {
	const (
		cameras = 40
		objects = 12
	)
	rng := rand.New(rand.NewSource(11))
	cfg := datasets.DefaultCOIL()
	cfg.Classes = objects
	cfg.Views = 36
	cfg.Ambient = 128
	images := datasets.SimCOIL100(cfg, rng)
	fmt.Printf("generated %d object images (%d objects, %d-dim)\n", images.N(), objects, cfg.Ambient)

	part := synth.PartitionNonIIDRange(images.Labels, objects, cameras, 2, 4, rng)
	devices := make([]*mat.Dense, cameras)
	truth := make([][]int, cameras)
	for c := 0; c < cameras; c++ {
		sub := images.Select(part.Points[c])
		devices[c] = sub.X
		truth[c] = sub.Labels
	}

	// Real TCP deployment on localhost.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	srv := &fednet.Server{
		L:       objects,
		Expect:  cameras,
		Central: core.CentralOptions{Method: core.CentralTSC},
		Seed:    3,
	}
	var stats fednet.ServeStats
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = srv.Serve(ln)
	}()

	results := make([]fednet.ClientResult, cameras)
	var cw sync.WaitGroup
	for c := range devices {
		cw.Add(1)
		go func(c int) {
			defer cw.Done()
			crng := rand.New(rand.NewSource(int64(100 + c)))
			dial := func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }
			res, err := fednet.RunClientDialerWire(dial, c, devices[c],
				core.LocalOptions{RMax: 4, UseEigengap: false, TargetDim: 1}, fednet.RetryPolicy{}, fednet.WireOptions{}, crng)
			if err != nil {
				log.Fatalf("camera %d: %v", c, err)
			}
			results[c] = res
		}(c)
	}
	cw.Wait()
	wg.Wait()
	if serveErr != nil {
		log.Fatalf("server: %v", serveErr)
	}

	labels := make([][]int, cameras)
	for c := range results {
		labels[c] = results[c].Labels
	}
	flat := core.FlattenLabels(truth)
	pred := core.FlattenLabels(labels)
	fmt.Printf("\nFed-SC (TSC) over TCP: ACC %.1f%%  NMI %.1f%%\n",
		metrics.Accuracy(flat, pred), metrics.NMI(flat, pred))
	fmt.Printf("server pooled %d samples; uplink wire traffic %d bytes\n",
		stats.Samples, stats.UplinkBytes)

	// In-process rerun with channel noise, to show graceful degradation.
	for _, delta := range []float64{0, 0.2, 1.0, 4.0} {
		res := core.Run(devices, objects, core.Options{
			Local:      core.LocalOptions{RMax: 4, UseEigengap: false, TargetDim: 1},
			Central:    core.CentralOptions{Method: core.CentralSSC},
			NoiseDelta: delta,
		}, rand.New(rand.NewSource(5)))
		fmt.Printf("channel noise δ=%.2f: ACC %.1f%%\n", delta,
			metrics.Accuracy(flat, core.FlattenLabels(res.Labels)))
	}
}
