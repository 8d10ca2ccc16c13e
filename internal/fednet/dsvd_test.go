package fednet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/dsvd"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/theory"
)

// dsvdBlocks deals the columns of a planted low-rank matrix into
// per-device blocks of the given sizes.
func dsvdBlocks(n, d int, sizes []int, seed int64) (*mat.Dense, []*mat.Dense) {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, c := range sizes {
		total += c
	}
	basis := mat.RandomOrthonormal(n, d, rng)
	coef := mat.RandomGaussian(d, total, rng)
	x := mat.Mul(basis, coef)
	noise := mat.RandomGaussian(n, total, rng)
	xd, nd := x.Data(), noise.Data()
	for i := range xd {
		xd[i] += 0.01 * nd[i]
	}
	blocks := make([]*mat.Dense, len(sizes))
	off := 0
	col := make([]float64, n)
	for z, c := range sizes {
		b := mat.NewDense(n, c)
		for j := 0; j < c; j++ {
			x.Col(off+j, col)
			b.SetCol(j, col)
		}
		blocks[z] = b
		off += c
	}
	return x, blocks
}

// TestDSVDHelloRoundTrip pins the wire encoding: a valid hello gob
// round-trips to an identical value that still validates.
func TestDSVDHelloRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(12)
		k := 1 + r.Intn(6)
		basis := make([]float64, rows*k)
		for i := range basis {
			basis[i] = r.NormFloat64()
		}
		h := DSVDHello{
			Nonce:  r.Int63(),
			Iter:   r.Intn(50),
			Rows:   rows,
			K:      k,
			Basis:  basis,
			Codecs: []WireCodec{CodecFloat64},
		}
		if h.Validate() != nil {
			return false
		}
		var buf bytes.Buffer
		if gob.NewEncoder(&buf).Encode(h) != nil {
			return false
		}
		var got DSVDHello
		if gob.NewDecoder(&buf).Decode(&got) != nil {
			return false
		}
		return reflect.DeepEqual(h, got) && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestDSVDHelloValidateRejects(t *testing.T) {
	good := DSVDHello{Rows: 3, K: 2, Basis: make([]float64, 6)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}
	cases := map[string]DSVDHello{
		"wrong length":  {Rows: 3, K: 2, Basis: make([]float64, 5)},
		"nan entry":     {Rows: 1, K: 2, Basis: []float64{0, math.NaN()}},
		"inf entry":     {Rows: 1, K: 2, Basis: []float64{math.Inf(1), 0}},
		"zero rows":     {Rows: 0, K: 2},
		"negative rank": {Rows: 3, K: -1},
		"overflow":      {Rows: math.MaxInt / 2, K: 3},
	}
	for name, h := range cases {
		if err := h.Validate(); err == nil {
			t.Fatalf("%s: hello validated", name)
		}
	}
}

// runNetworkedDSVD executes a full distributed solve over an in-process
// pipe network, returning the server stats and per-device client stats.
func runNetworkedDSVD(t *testing.T, blocks []*mat.Dense, srv *DSVDServer) (DSVDServeStats, []DSVDClientStats) {
	t.Helper()
	pn := chaos.NewPipeNet()
	defer pn.Close()
	var stats DSVDServeStats
	var serveErr error
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		stats, serveErr = srv.Serve(pn.Listener())
	}()
	clientStats := make([]DSVDClientStats, len(blocks))
	clientErrs := make([]error, len(blocks))
	var wg sync.WaitGroup
	for dev := range blocks {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + dev)))
			clientStats[dev], clientErrs[dev] = RunDSVDClient(pn.Dial, dev, blocks[dev],
				RetryPolicy{Timeout: 5 * time.Second}, WireOptions{}, rng)
		}(dev)
	}
	wg.Wait()
	<-serverDone
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	for dev, err := range clientErrs {
		if err != nil {
			t.Fatalf("device %d: %v", dev, err)
		}
	}
	return stats, clientStats
}

// TestDSVDNetworkedEqualsInProcess is the transport-transparency pin:
// a solve over the wire must produce bit-identical results to the
// in-process dsvd.Run over the same blocks — same basis bits, same
// singular values, same iteration count.
func TestDSVDNetworkedEqualsInProcess(t *testing.T) {
	const n, d = 18, 3
	_, blocks := dsvdBlocks(n, d, []int{12, 25, 17}, 44)
	opts := dsvd.Options{K: d, Seed: 9, Obs: obs.NewRegistry()}
	srv := &DSVDServer{Expect: len(blocks), Rows: n, Opts: opts, WaitTimeout: 10 * time.Second}
	stats, clientStats := runNetworkedDSVD(t, blocks, srv)

	local, err := dsvd.Run(blocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.Result.U.Data(), local.U.Data()) {
		t.Fatal("networked basis differs from in-process basis")
	}
	if !reflect.DeepEqual(stats.Result.Sigma, local.Sigma) {
		t.Fatalf("networked sigma %v != in-process %v", stats.Result.Sigma, local.Sigma)
	}
	if stats.Result.Iters != local.Iters || stats.Result.Residual != local.Residual { //fedsc:allow floatcmp bit-identity pin, not a tolerance check
		t.Fatalf("networked (iters=%d, rho=%g) != in-process (iters=%d, rho=%g)",
			stats.Result.Iters, stats.Result.Residual, local.Iters, local.Residual)
	}
	for dev, cs := range clientStats {
		if cs.Iters != local.Iters {
			t.Fatalf("device %d served %d iterations, solve took %d", dev, cs.Iters, local.Iters)
		}
		if cs.Attempts != cs.Iters {
			t.Fatalf("device %d needed %d attempts for %d iterations on a clean network", dev, cs.Attempts, cs.Iters)
		}
	}
	if len(stats.Failures) != 0 || stats.Retries != 0 {
		t.Fatalf("clean network produced failures %v, retries %d", stats.Failures, stats.Retries)
	}
}

// TestDSVDMatchesCentralizedOverWire closes the loop against the
// centralized decomposition: the basis estimated without any raw
// column ever crossing the wire must agree with mat.TruncatedSVD of
// the pooled matrix to principal-angle cosine ≥ 0.999.
func TestDSVDMatchesCentralizedOverWire(t *testing.T) {
	const n, d = 20, 3
	x, blocks := dsvdBlocks(n, d, []int{30, 15, 15}, 7)
	opts := dsvd.Options{K: d, Seed: 21, Tol: 1e-11, MaxIter: 300, Obs: obs.NewRegistry()}
	srv := &DSVDServer{Expect: len(blocks), Rows: n, Opts: opts, WaitTimeout: 10 * time.Second}
	stats, _ := runNetworkedDSVD(t, blocks, srv)
	central, _ := mat.TruncatedSVD(x, d)
	for _, c := range theory.PrincipalAngles(stats.Result.U, central) {
		if c < 0.999 {
			t.Fatalf("principal-angle cosines %v below 0.999", theory.PrincipalAngles(stats.Result.U, central))
		}
	}
}

// TestDSVDUplinkSublinearInSamples asserts the privacy/cost contract:
// a device's uplink is Iters×n×k values no matter how many columns it
// holds — constant, hence sublinear, in the local sample count.
func TestDSVDUplinkSublinearInSamples(t *testing.T) {
	const n, d = 14, 2
	small := []int{4, 4, 4}
	big := []int{64, 64, 64}
	perDeviceBits := func(sizes []int) (int64, int) {
		_, blocks := dsvdBlocks(n, d, sizes, 3)
		opts := dsvd.Options{K: d, Seed: 5, Obs: obs.NewRegistry()}
		srv := &DSVDServer{Expect: len(blocks), Rows: n, Opts: opts, WaitTimeout: 10 * time.Second}
		stats, _ := runNetworkedDSVD(t, blocks, srv)
		want := int64(stats.Result.Iters) * int64(len(blocks)) * int64(n) * int64(d) * 64
		if stats.UplinkPayloadBits != want {
			t.Fatalf("sizes %v: payload bits %d, want iters×devices×n×k×64 = %d",
				sizes, stats.UplinkPayloadBits, want)
		}
		return stats.UplinkPayloadBits / int64(len(blocks)), stats.Result.Iters
	}
	smallBits, smallIters := perDeviceBits(small)
	bigBits, bigIters := perDeviceBits(big)
	if smallBits/int64(smallIters) != bigBits/int64(bigIters) {
		t.Fatalf("per-device per-iteration uplink depends on local sample count: %d vs %d bits",
			smallBits/int64(smallIters), bigBits/int64(bigIters))
	}
}

// TestDSVDServerRejectsBadConfig covers the argument validation.
func TestDSVDServerRejectsBadConfig(t *testing.T) {
	if _, err := (&DSVDServer{Expect: 0, Rows: 4, Opts: dsvd.Options{K: 2}}).Serve(&staticListener{}); err == nil {
		t.Fatal("zero Expect accepted")
	}
	if _, err := (&DSVDServer{Expect: 1, Rows: 0, Opts: dsvd.Options{K: 2}}).Serve(&staticListener{}); err == nil {
		t.Fatal("zero Rows accepted")
	}
	if _, err := (&DSVDServer{Expect: 1, Rows: 4, Opts: dsvd.Options{K: 0}}).Serve(&staticListener{}); err == nil {
		t.Fatal("zero rank accepted")
	}
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// TestDSVDClientBoundsHello: a server that sends a DSVDHello far larger
// than the device's block allows must not get the device to read it.
// The client reads at most its budget (Rows×Rows values for its block's
// Rows), counted by the server over an unbuffered pipe, and fails with
// an error naming the limit.
func TestDSVDClientBoundsHello(t *testing.T) {
	const rows, k = 8, 20000 // a legitimate basis has K <= rows
	block := mat.RandomGaussian(rows, 4, rand.New(rand.NewSource(1)))
	sc, cc := net.Pipe()
	sent := &countingWriter{w: sc}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The encode fails once the client hangs up; only the count matters.
		_ = gob.NewEncoder(sent).Encode(DSVDHello{Nonce: 1, Rows: rows, K: k, Basis: make([]float64, rows*k)})
		_ = sc.Close()
	}()
	_, err := RunDSVDClient(func() (net.Conn, error) { return cc, nil }, 0, block,
		RetryPolicy{Timeout: 10 * time.Second}, WireOptions{}, rand.New(rand.NewSource(2)))
	<-done
	budget := int64(smallMsgBytes + gobValueBytes*rows*rows)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds the %d-byte limit", budget)) {
		t.Fatalf("oversized hello: err = %v, want the %d-byte limit named", err, budget)
	}
	if sent.n > budget {
		t.Fatalf("client read %d bytes of the hello, budget %d", sent.n, budget)
	}
}
