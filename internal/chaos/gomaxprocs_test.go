package chaos_test

// DESIGN §5 says a run is a pure function of dataset, seed and config;
// GOMAXPROCS is not part of the config. This test holds every parallel
// round path to that across core counts.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/datasets"
	"fedsc/internal/fednet"
	"fedsc/internal/fleet"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/store"
	"fedsc/internal/synth"
)

// digest accumulates labels and float bits into one comparable value.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) ints(vs ...int) {
	for _, v := range vs {
		d.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
}

func (d digest) labels(ls [][]int) {
	for _, l := range ls {
		d.ints(len(l))
		d.ints(l...)
	}
}

func (d digest) floats(vs []float64) {
	d.ints(len(vs))
	for _, v := range vs {
		d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

func (d digest) bases(bs []*mat.Dense) {
	for _, b := range bs {
		d.ints(b.Rows(), b.Cols())
		d.floats(b.Data())
	}
}

// model digests everything of an artifact but its creation time.
func (d digest) model(m *core.Model) {
	d.ints(m.Ambient, m.L)
	for _, c := range m.Clusters {
		d.ints(c.Dim, c.Samples)
		d.floats(c.Data)
	}
}

func (d digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// localShapeDevices draws the round-local shape: 40 devices, each with
// 15 points from each of 2 of 8 five-dimensional subspaces of R^20.
func localShapeDevices(seed int64) []*mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(20, 5, 8, rng)
	devices := make([]*mat.Dense, 40)
	for dev := range devices {
		counts := make([]int, 8)
		for _, c := range rng.Perm(8)[:2] {
			counts[c] = 15
		}
		devices[dev] = s.SampleCounts(counts, rng).X
	}
	return devices
}

// highDimShapeDevices draws the round-highdim shape: simulated EMNIST,
// 600 points in R^256 over 30 devices holding 2 to 4 classes each.
func highDimShapeDevices(seed int64) []*mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	ds := datasets.SimEMNIST(datasets.DefaultEMNIST(), 600, rng)
	part := synth.PartitionNonIIDRange(ds.Labels, 62, 30, 2, 4, rng)
	devices := make([]*mat.Dense, len(part.Points))
	for dev, pts := range part.Points {
		devices[dev] = ds.Select(pts).X
	}
	return devices
}

func coreRound(devices []*mat.Dense, l int, local core.LocalOptions) string {
	res := core.Run(devices, l, core.Options{Local: local, Obs: obs.NewRegistry()}, rand.New(rand.NewSource(3)))
	d := newDigest()
	d.labels(res.Labels)
	d.bases(res.GlobalBases)
	return d.sum()
}

func fleetRound(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := synth.RandomSubspaces(30, 3, 5, rng)
	wave := func(subsets ...[]int) []*mat.Dense {
		var devices []*mat.Dense
		for _, subs := range subsets {
			counts := make([]int, 5)
			for _, c := range subs {
				counts[c] = 15
			}
			devices = append(devices, s.SampleCounts(counts, rng).X)
		}
		return devices
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := fleet.New(fleet.Config{
		L:                3,
		Local:            core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
		Seed:             seed,
		Store:            st,
		Obs:              obs.NewRegistry(),
		DistributedBases: true,
	})
	if err != nil {
		t.Fatalf("new controller: %v", err)
	}
	res, _, err := c.Initial(wave([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{0, 1}))
	if err != nil {
		t.Fatalf("initial: %v", err)
	}
	d := newDigest()
	d.labels(res.Labels)
	d.model(c.Model())
	// One known and one unseen subspace: the join absorbs and splices.
	join, err := c.Join(wave([]int{0, 3}, []int{3}))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if join.Absorbed == 0 || join.Spliced == 0 {
		t.Fatalf("join absorbed %d and spliced %d clusters; the case needs both", join.Absorbed, join.Spliced)
	}
	d.labels(join.Labels)
	d.model(c.Model())
	return d.sum()
}

// fednetRound runs one fault-free round over PipeNet with the serving
// artifact exported.
func fednetRound(t *testing.T, devices []*mat.Dense) string {
	t.Helper()
	pn := chaos.NewPipeNet()
	defer pn.Close()
	srv := &fednet.Server{L: 4, Expect: len(devices), Seed: 99, WaitTimeout: 10 * time.Second, Export: true}
	var stats fednet.ServeStats
	var serveErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, serveErr = srv.Serve(pn.Listener())
	}()
	labels := make([][]int, len(devices))
	errs := make([]error, len(devices))
	var wg sync.WaitGroup
	for dev := range devices {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			res, err := fednet.RunClientDialerWire(pn.Dial, dev, devices[dev], core.LocalOptions{UseEigengap: true},
				fednet.RetryPolicy{}, fednet.WireOptions{}, rand.New(rand.NewSource(int64(1000+dev))))
			labels[dev], errs[dev] = res.Labels, err
		}(dev)
	}
	wg.Wait()
	<-done
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	for dev, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", dev, err)
		}
	}
	if stats.Model == nil {
		t.Fatal("round exported no model")
	}
	d := newDigest()
	d.labels(labels)
	d.model(stats.Model)
	return d.sum()
}

// TestDeterministicAcrossGOMAXPROCS runs each parallel round path at
// GOMAXPROCS 1, 2 and 8 and requires bit-identical labels and bases.
// It must not run in parallel with other tests: it changes a
// process-wide setting.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	local := localShapeDevices(1)
	highDim := highDimShapeDevices(2)
	wire := chaosDevices(5, 42)
	cases := []struct {
		name string
		run  func() string
	}{
		{"core.Run round-local", func() string {
			return coreRound(local, 8, core.LocalOptions{UseEigengap: true, RMax: 13})
		}},
		{"core.Run round-highdim", func() string {
			return coreRound(highDim, 62, core.LocalOptions{RMax: 4, TargetDim: 1})
		}},
		{"fleet Initial+Join", func() string { return fleetRound(t, 7) }},
		{"fednet round over PipeNet", func() string { return fednetRound(t, wire) }},
	}
	for _, tc := range cases {
		var want string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := tc.run()
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: GOMAXPROCS=%d digest %s differs from GOMAXPROCS=1 digest %s", tc.name, procs, got, want)
			}
		}
	}
}
