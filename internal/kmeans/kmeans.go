// Package kmeans implements k-means++ seeding and Lloyd iterations. It is
// used by the spectral-clustering embedding step and by the k-FED
// federated baseline. Points are the ROWS of the input matrix.
package kmeans

import (
	"math"
	"math/rand"

	"fedsc/internal/mat"
)

// Result holds the outcome of a k-means run.
type Result struct {
	// Labels assigns each input row to a centroid in [0, k).
	Labels []int
	// Centroids holds one centroid per row.
	Centroids *mat.Dense
	// Inertia is the summed squared distance of points to their centroid.
	Inertia float64
}

// Options configures Run.
type Options struct {
	// MaxIter bounds Lloyd iterations per restart (default 100).
	MaxIter int
	// Restarts is the number of independent k-means++ restarts; the best
	// inertia wins (default 5).
	Restarts int
	// Tol stops iterating when the inertia improvement falls below it
	// (default 1e-9).
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Restarts <= 0 {
		o.Restarts = 5
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Run clusters the rows of points into k groups with k-means++ seeding and
// Lloyd iterations, keeping the best of several restarts. k is clamped to
// the number of points.
func Run(points *mat.Dense, k int, rng *rand.Rand, opts Options) Result {
	opts = opts.withDefaults()
	n, _ := points.Dims()
	if k <= 0 {
		panic("kmeans: k must be positive")
	}
	if k > n {
		k = n
	}
	// The restarts share their scratch, and each one writes its labels
	// and centroids over the buffers of the last restart that lost.
	d := points.Cols()
	counts, dist := make([]int, k), make([]float64, n)
	best := Result{Inertia: math.Inf(1)}
	var spare Result
	for r := 0; r < opts.Restarts; r++ {
		if spare.Labels == nil {
			spare = Result{Labels: make([]int, n), Centroids: mat.NewDense(k, d)}
		}
		res := runOnce(points, k, rng, opts, spare, counts, dist)
		if res.Inertia < best.Inertia {
			best, spare = res, best
		} else {
			spare = res
		}
	}
	return best
}

// runOnce is one seeded restart, writing into out's Labels (n entries)
// and Centroids (k×d), with counts (k) and dist (n) as scratch. Every
// entry is written before it is read.
func runOnce(points *mat.Dense, k int, rng *rand.Rand, opts Options, out Result, counts []int, dist []float64) Result {
	n, d := points.Dims()
	centroids := out.Centroids
	seedPlusPlus(points, centroids, rng, dist)
	labels := out.Labels
	prev := math.Inf(1)
	inertia := 0.0
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Assignment step.
		inertia = 0.0
		for i := 0; i < n; i++ {
			row := points.Row(i)
			bi, bd := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d2 := sqDist(row, centroids.Row(c)); d2 < bd {
					bi, bd = c, d2
				}
			}
			labels[i] = bi
			inertia += bd
		}
		if prev-inertia < opts.Tol {
			break
		}
		prev = inertia
		// Update step.
		centroids.Zero()
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := labels[i]
			counts[c]++
			crow := centroids.Row(c)
			for j, v := range points.Row(i) {
				crow[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep exactly k clusters alive.
				far, fd := 0, -1.0
				for i := 0; i < n; i++ {
					if d2 := sqDist(points.Row(i), centroids.Row(labels[i])); d2 > fd {
						far, fd = i, d2
					}
				}
				copy(centroids.Row(c), points.Row(far))
				continue
			}
			inv := 1 / float64(counts[c])
			crow := centroids.Row(c)
			for j := 0; j < d; j++ {
				crow[j] *= inv
			}
		}
	}
	return Result{Labels: labels, Centroids: centroids, Inertia: inertia}
}

// seedPlusPlus picks the rows of centroids with the k-means++ D²
// weighting, with dist (one entry per point) as scratch.
func seedPlusPlus(points, centroids *mat.Dense, rng *rand.Rand, dist []float64) {
	n, _ := points.Dims()
	k, _ := centroids.Dims()
	first := rng.Intn(n)
	copy(centroids.Row(0), points.Row(first))
	for i := 0; i < n; i++ {
		dist[i] = sqDist(points.Row(i), centroids.Row(0))
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for _, v := range dist {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, v := range dist {
				acc += v
				if acc >= target {
					pick = i
					break
				}
			}
		}
		copy(centroids.Row(c), points.Row(pick))
		for i := 0; i < n; i++ {
			if d2 := sqDist(points.Row(i), centroids.Row(c)); d2 < dist[i] {
				dist[i] = d2
			}
		}
	}
}

func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Assign labels each row of points with the nearest row of centroids.
func Assign(points, centroids *mat.Dense) []int {
	n, _ := points.Dims()
	k, _ := centroids.Dims()
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		row := points.Row(i)
		bi, bd := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if d2 := sqDist(row, centroids.Row(c)); d2 < bd {
				bi, bd = c, d2
			}
		}
		labels[i] = bi
	}
	return labels
}
