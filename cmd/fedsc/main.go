// Command fedsc runs one-shot federated subspace clustering (or a
// baseline) on a generated dataset and prints the evaluation metrics.
//
// Examples:
//
//	fedsc -method fedsc-ssc -L 20 -Z 200 -lprime 2
//	fedsc -method kfed -dataset emnist -Z 100
//	fedsc -method ssc -dataset coil      # centralized baseline
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/datasets"
	"fedsc/internal/kfed"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/store"
	"fedsc/internal/subspace"
	"fedsc/internal/synth"
)

func main() {
	var (
		method   = flag.String("method", "fedsc-ssc", "fedsc-ssc | fedsc-tsc | kfed | kfed-pca10 | kfed-pca100 | ssc | tsc | sscomp | ensc | nsn")
		dataset  = flag.String("dataset", "synthetic", "synthetic | emnist | coil")
		l        = flag.Int("L", 20, "number of global clusters (synthetic)")
		z        = flag.Int("Z", 100, "number of devices")
		lprime   = flag.Int("lprime", 2, "clusters per device L' (0 = IID)")
		points   = flag.Int("points", 4000, "total number of data points (approximate)")
		dim      = flag.Int("dim", 5, "subspace dimension (synthetic)")
		ambient  = flag.Int("ambient", 20, "ambient dimension (synthetic) or feature dim (real)")
		noise    = flag.Float64("noise", 0, "channel-noise δ for Fed-SC uploads")
		shards   = flag.Int("shards", 0, "Phase 2 shard count (0/1 = exact single-pass central clustering)")
		sketch   = flag.Int("sketch", 0, "Phase 2 ambient sketch size s (0 = no sketch)")
		seed     = flag.Int64("seed", 1, "random seed")
		storeDir = flag.String("store", "", "deploy the serving artifact into this content-addressed store (fedsc-ssc/fedsc-tsc only)")
		tag      = flag.String("tag", "round", "manifest name for the artifact (with -store)")
		trace    = flag.String("trace", "", "write the round's span tree as canonical JSONL here and render a waterfall (fedsc-ssc/fedsc-tsc only)")
	)
	flag.Parse()
	if *storeDir != "" && *method != "fedsc-ssc" && *method != "fedsc-tsc" {
		fatalf("-store requires -method fedsc-ssc or fedsc-tsc (got %q)", *method)
	}
	if *trace != "" && *method != "fedsc-ssc" && *method != "fedsc-tsc" {
		fatalf("-trace requires -method fedsc-ssc or fedsc-tsc (got %q)", *method)
	}
	rng := rand.New(rand.NewSource(*seed))

	var ds synth.Dataset
	numClusters := *l
	switch *dataset {
	case "synthetic":
		s := synth.RandomSubspaces(*ambient, *dim, *l, rng)
		per := *points / *l
		if per < *dim+2 {
			per = *dim + 2
		}
		ds = s.Sample(per, rng)
	case "emnist":
		cfg := datasets.DefaultEMNIST()
		if *ambient > 20 {
			cfg.Ambient = *ambient
		}
		ds = datasets.SimEMNIST(cfg, *points, rng)
		numClusters = cfg.Classes
	case "coil":
		cfg := datasets.DefaultCOIL()
		if *ambient > 20 {
			cfg.Ambient = *ambient
		}
		ds = datasets.SimCOIL100(cfg, rng)
		ds = datasets.Subsample(ds, *points, rng)
		numClusters = cfg.Classes
	default:
		fatalf("unknown dataset %q", *dataset)
	}

	start := time.Now()
	switch *method {
	case "ssc", "tsc", "sscomp", "ensc", "nsn":
		res := subspace.Cluster(subspace.Method(*method), ds.X, numClusters, rng)
		report(*method, ds.N(), numClusters, 0, 1,
			metrics.Accuracy(ds.Labels, res.Labels), metrics.NMI(ds.Labels, res.Labels),
			time.Since(start))
		return
	}

	lp := *lprime
	if lp <= 0 || lp > numClusters {
		lp = numClusters
	}
	part := synth.PartitionNonIID(ds.Labels, numClusters, *z, lp, rng)
	devices := make([]*mat.Dense, part.Z())
	truth := make([][]int, part.Z())
	for dev := 0; dev < part.Z(); dev++ {
		sub := ds.Select(part.Points[dev])
		devices[dev] = sub.X
		truth[dev] = sub.Labels
	}
	flatTruth := core.FlattenLabels(truth)

	var pred []int
	switch *method {
	case "fedsc-ssc", "fedsc-tsc":
		m := core.CentralSSC
		if *method == "fedsc-tsc" {
			m = core.CentralTSC
		}
		var tracer *obs.Tracer
		if *trace != "" {
			tracer = obs.NewTracer(nil)
		}
		res := core.Run(devices, numClusters, core.Options{
			Local: core.LocalOptions{UseEigengap: true, RMax: 2 * lp},
			Central: core.CentralOptions{
				Method:     m,
				Shards:     *shards,
				SketchSize: *sketch,
			},
			NoiseDelta: *noise,
			Trace:      tracer,
		}, rng)
		pred = core.FlattenLabels(res.Labels)
		fmt.Printf("sum_r=%d uplink=%d bits downlink=%d bits central=%.2fs\n",
			sum(res.RPerDevice), res.UplinkBits, res.DownlinkBits, res.CentralTime.Seconds())
		if *trace != "" {
			if err := writeTrace(tracer, *trace); err != nil {
				fatalf("write trace: %v", err)
			}
		}
		if *storeDir != "" {
			model, err := core.ModelFromResult(res, numClusters, 0, m)
			if err != nil {
				fatalf("build model: %v", err)
			}
			st, err := store.Open(*storeDir)
			if err != nil {
				fatalf("%v", err)
			}
			digest, err := st.PutTagged(*tag, model)
			if err != nil {
				fatalf("store model: %v", err)
			}
			fmt.Printf("deployed artifact %s as %q in %s\n", digest[:12], *tag, *storeDir)
		}
	case "kfed", "kfed-pca10", "kfed-pca100":
		pcaDim := map[string]int{"kfed": 0, "kfed-pca10": 10, "kfed-pca100": 100}[*method]
		res := kfed.Run(devices, numClusters, rng, kfed.Options{KLocal: lp, PCADim: pcaDim})
		pred = core.FlattenLabels(res.Labels)
	default:
		fatalf("unknown method %q", *method)
	}
	report(*method, ds.N(), numClusters, lp, part.Z(),
		metrics.Accuracy(flatTruth, pred), metrics.NMI(flatTruth, pred), time.Since(start))
}

// writeTrace saves the canonical (wall-clock-free, hence seed-stable)
// span export to path and renders the timed waterfall to stderr so the
// human-readable view never pollutes stdout or the JSONL artifact.
func writeTrace(tracer *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f, false); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote span trace to %s\n", path)
	tracer.Waterfall(os.Stderr)
	return nil
}

func report(method string, n, l, lp, z int, acc, nmi float64, elapsed time.Duration) {
	fmt.Printf("method=%s N=%d L=%d L'=%d Z=%d ACC=%.2f%% NMI=%.2f%% T=%.2fs\n",
		method, n, l, lp, z, acc, nmi, elapsed.Seconds())
}

func sum(a []int) int {
	s := 0
	for _, v := range a {
		s += v
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fedsc: "+format+"\n", args...)
	os.Exit(2)
}
