// Command fedsc-client runs one client device of the one-shot Fed-SC
// protocol: it generates (or would load) local data, performs local
// clustering and sampling (Algorithm 2), uploads the samples to a
// fedsc-server over TCP, and prints the resulting local labels.
//
// Usage:
//
//	fedsc-client -addr localhost:7070 -id 0 -L 20 -lprime 2 -points 40
//
// The synthetic local data is drawn from lprime of L shared random
// subspaces; all clients started with the same -data-seed share the same
// subspace arrangement, which is what makes the server's aggregation
// meaningful.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"

	"fedsc/internal/core"
	"fedsc/internal/fednet"
	"fedsc/internal/synth"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7070", "server address")
		id       = flag.Int("id", 0, "device id")
		l        = flag.Int("L", 20, "number of global clusters")
		lprime   = flag.Int("lprime", 2, "clusters on this device")
		points   = flag.Int("points", 40, "local points")
		dim      = flag.Int("dim", 5, "subspace dimension")
		ambient  = flag.Int("ambient", 20, "ambient dimension")
		dataSeed = flag.Int64("data-seed", 7, "seed of the SHARED subspace arrangement")
		dsvdMode = flag.Bool("dsvd", false, "serve a distributed dominant SVD round (pair with fedsc-server -dsvd)")
	)
	flag.Parse()

	// The subspace arrangement must be identical across clients (it is
	// the ground truth of the federation); local draws differ by device.
	shared := rand.New(rand.NewSource(*dataSeed))
	s := synth.RandomSubspaces(*ambient, *dim, *l, shared)
	local := rand.New(rand.NewSource(*dataSeed*1000 + int64(*id)))
	clusters := local.Perm(*l)[:*lprime]
	counts := make([]int, *l)
	for k := 0; k < *points; k++ {
		counts[clusters[k%*lprime]]++
	}
	ds := s.SampleCounts(counts, local)

	if *dsvdMode {
		// Distributed SVD: the raw local columns never leave the device;
		// each iteration uploads only their n×k projection of the basis
		// the server sent.
		stats, err := fednet.RunDSVDClient(func() (net.Conn, error) {
			return net.Dial("tcp", *addr)
		}, *id, ds.X, fednet.RetryPolicy{MaxAttempts: 3}, fednet.WireOptions{}, local)
		if err != nil {
			log.Fatalf("fedsc-client: dsvd: %v", err)
		}
		fmt.Printf("device %d: served %d dsvd iterations in %d attempts over %d local columns\n",
			*id, stats.Iters, stats.Attempts, ds.X.Cols())
		return
	}

	res, err := fednet.RunClientDialerWire(func() (net.Conn, error) {
		return net.Dial("tcp", *addr)
	}, *id, ds.X, core.LocalOptions{UseEigengap: true}, fednet.RetryPolicy{}, fednet.WireOptions{}, local)
	if err != nil {
		log.Fatalf("fedsc-client: %v", err)
	}
	fmt.Printf("device %d: %d local clusters, assignments %v, labeled %d points\n",
		*id, res.R, res.SampleAssignments, len(res.Labels))
}
