// Command fedsc-server runs the central-server side of the one-shot
// Fed-SC protocol over TCP: it waits for the expected number of client
// uploads, clusters the pooled samples, and returns each client its
// sample assignments.
//
// Usage:
//
//	fedsc-server -addr :7070 -clients 8 -L 20 [-central ssc|tsc] [-store ./models -tag cohort-a]
//	fedsc-server -addr :7070 -clients 4 -dsvd -dsvd-k 3 -ambient 20
//
// With -dsvd the server instead coordinates a distributed dominant SVD
// (internal/dsvd): devices keep their raw column blocks and upload only
// n×k subspace projections each iteration.
//
// With -store the round's serving artifact is deployed into the
// content-addressed store under -tag, where cmd/fedsc-serve -store
// serves it (POST /v1/reload picks it up on a running server).
//
// Pair with cmd/fedsc-client.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/dsvd"
	"fedsc/internal/fednet"
	"fedsc/internal/obs"
	"fedsc/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "listen address")
		clients   = flag.Int("clients", 4, "number of client devices to wait for")
		l         = flag.Int("L", 20, "number of global clusters")
		central   = flag.String("central", "ssc", "central clustering: ssc or tsc")
		shards    = flag.Int("shards", 0, "Phase 2 shard count (0/1 = exact single-pass central clustering)")
		sketch    = flag.Int("sketch", 0, "Phase 2 ambient sketch size s (0 = no sketch)")
		seed      = flag.Int64("seed", 1, "server random seed")
		storeDir  = flag.String("store", "", "deploy the serving artifact into this content-addressed store")
		tag       = flag.String("tag", "round", "manifest name for the artifact (with -store)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
		dsvdMode  = flag.Bool("dsvd", false, "run a distributed dominant SVD round instead of Fed-SC clustering")
		dsvdK     = flag.Int("dsvd-k", 5, "number of dominant singular pairs to estimate (with -dsvd)")
		dsvdTol   = flag.Float64("dsvd-tol", 1e-9, "relative subspace residual stopping tolerance (with -dsvd)")
		ambient   = flag.Int("ambient", 20, "ambient (row) dimension of the device column blocks (with -dsvd)")
	)
	flag.Parse()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, obs.Default(), nil)
		if err != nil {
			log.Fatalf("fedsc-server: debug listener: %v", err)
		}
		log.Printf("fedsc-server: debug endpoints on http://%s/metrics and /debug/pprof/", dbg)
	}

	method := core.CentralSSC
	switch *central {
	case "ssc":
	case "tsc":
		method = core.CentralTSC
	default:
		log.Fatalf("fedsc-server: unknown central method %q", *central)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("fedsc-server: listen: %v", err)
	}
	defer func() { _ = ln.Close() }()

	if *dsvdMode {
		// Distributed dominant SVD: devices keep their column blocks and
		// per iteration upload only the n×k projection of the shared
		// iterate — basis estimation without centralizing any data.
		log.Printf("fedsc-server: waiting for %d devices on %s (distributed SVD, n=%d, k=%d)",
			*clients, ln.Addr(), *ambient, *dsvdK)
		srv := &fednet.DSVDServer{
			Expect:      *clients,
			Rows:        *ambient,
			Opts:        dsvd.Options{K: *dsvdK, Tol: *dsvdTol, Seed: *seed},
			WaitTimeout: 5 * time.Minute,
		}
		stats, err := srv.Serve(ln)
		if err != nil {
			log.Fatalf("fedsc-server: dsvd: %v", err)
		}
		fmt.Printf("dsvd complete: %d iterations, residual %.3e, converged=%v\n",
			stats.Result.Iters, stats.Result.Residual, stats.Result.Converged)
		fmt.Printf("singular values: %v\n", stats.Result.Sigma)
		fmt.Printf("wire: %d uplink bytes (%d payload bits), %d downlink bytes, %d retries\n",
			stats.UplinkBytes, stats.UplinkPayloadBits, stats.DownlinkBytes, stats.Retries)
		return
	}

	log.Printf("fedsc-server: waiting for %d clients on %s (L=%d, central=%s)",
		*clients, ln.Addr(), *l, *central)

	srv := &fednet.Server{
		L:      *l,
		Expect: *clients,
		Central: core.CentralOptions{
			Method:     method,
			Shards:     *shards,
			SketchSize: *sketch,
		},
		Seed:   *seed,
		Export: *storeDir != "",
	}
	stats, err := srv.Serve(ln)
	if err != nil {
		log.Fatalf("fedsc-server: %v", err)
	}
	fmt.Printf("round complete: %d samples pooled, %d uplink bytes\n",
		stats.Samples, stats.UplinkBytes)
	if *storeDir != "" {
		if stats.Model == nil {
			log.Fatalf("fedsc-server: round pooled no samples, nothing to deploy")
		}
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatalf("fedsc-server: %v", err)
		}
		digest, err := st.PutTagged(*tag, stats.Model)
		if err != nil {
			log.Fatalf("fedsc-server: store model: %v", err)
		}
		fmt.Printf("deployed artifact %s as %q in %s\n", digest[:12], *tag, *storeDir)
	}
}
