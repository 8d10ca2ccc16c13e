package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"time"

	"fedsc/internal/mat"
)

// ModelVersion is the current on-disk artifact format version. Loaders
// reject artifacts from a newer format than they understand.
const ModelVersion = 1

// ClusterBasis is the serialized orthonormal basis of one global
// cluster's estimated subspace.
type ClusterBasis struct {
	// Dim is the subspace dimension d (number of basis columns).
	Dim int
	// Data is the Ambient x Dim basis, row-major. Empty for a global
	// cluster that received no samples (its projector is zero, so it can
	// never win a minimum-residual assignment).
	Data []float64
	// Samples is the number of pooled samples the basis was estimated
	// from (diagnostic metadata).
	Samples int
}

// Model is the immutable artifact a completed one-shot Fed-SC round
// produces for serving: per-global-cluster subspace bases plus enough
// metadata to identify and verify the artifact. A new point x is
// assigned to the cluster minimizing the projection residual
// ‖x − U Uᵀx‖ over the stored bases — the standard out-of-sample rule
// for subspace models.
type Model struct {
	// Version is the artifact format version (ModelVersion when built).
	Version int
	// Ambient is the data dimension n every basis lives in.
	Ambient int
	// L is the number of global clusters; len(Clusters) == L.
	L        int
	Clusters []ClusterBasis
	// Method records the Phase 2 algorithm that produced the labels
	// ("ssc" or "tsc"); informational.
	Method string
	// CreatedUnixNano is the artifact creation time (UnixNano). Seal
	// stamps it when zero.
	CreatedUnixNano int64
	// Checksum is the SHA-256 digest of the payload fields (everything
	// except the checksum itself); DecodeModel verifies it.
	Checksum [sha256.Size]byte
}

// checksum digests every payload field in a fixed order.
func (m *Model) checksum() [sha256.Size]byte {
	h := sha256.New()
	num := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	num(int64(m.Version))
	num(int64(m.Ambient))
	num(int64(m.L))
	num(m.CreatedUnixNano)
	h.Write([]byte(m.Method))
	for _, c := range m.Clusters {
		num(int64(c.Dim))
		num(int64(c.Samples))
		num(int64(len(c.Data)))
		for _, v := range c.Data {
			num(int64(math.Float64bits(v)))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Seal stamps the creation time (when unset) and checksum; Encode calls
// it automatically.
func (m *Model) Seal() {
	if m.CreatedUnixNano == 0 {
		m.CreatedUnixNano = time.Now().UnixNano()
	}
	m.Checksum = m.checksum()
}

// Validate checks structural consistency and the checksum.
func (m *Model) Validate() error {
	if m.Version <= 0 || m.Version > ModelVersion {
		return fmt.Errorf("core: unsupported model version %d (understand up to %d)", m.Version, ModelVersion)
	}
	if m.Ambient <= 0 {
		return fmt.Errorf("core: model ambient dimension %d", m.Ambient)
	}
	if m.L != len(m.Clusters) {
		return fmt.Errorf("core: model declares L=%d but holds %d cluster bases", m.L, len(m.Clusters))
	}
	for g, c := range m.Clusters {
		if c.Dim < 0 || len(c.Data) != m.Ambient*c.Dim {
			return fmt.Errorf("core: cluster %d basis is %d floats, want %dx%d", g, len(c.Data), m.Ambient, c.Dim)
		}
	}
	if m.Checksum != m.checksum() {
		return fmt.Errorf("core: model checksum mismatch (artifact corrupted or tampered)")
	}
	return nil
}

// Bases decodes the stored cluster bases into dense matrices, in global
// label order.
func (m *Model) Bases() []*mat.Dense {
	out := make([]*mat.Dense, len(m.Clusters))
	for g, c := range m.Clusters {
		data := make([]float64, len(c.Data))
		copy(data, c.Data)
		out[g] = mat.NewDenseData(m.Ambient, c.Dim, data)
	}
	return out
}

// Created returns the artifact creation time.
func (m *Model) Created() time.Time { return time.Unix(0, m.CreatedUnixNano) }

// Encode gob-serializes the sealed model to w.
func (m *Model) Encode(w io.Writer) error {
	m.Seal()
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("core: encode model: %w", err)
	}
	return nil
}

// DecodeModel reads a gob model artifact from r and validates it.
func DecodeModel(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// GlobalBases estimates, for each global cluster in [0, l), an
// orthonormal basis of its subspace by truncated SVD over the pooled
// samples carrying that label (theta's columns, labeled by labels).
// targetDim forces the per-cluster dimension (the paper's d_t shortcut);
// zero estimates it per cluster from the pooled spectrum, capped by the
// sample count. Clusters with no samples get an Ambient x 0 basis.
// It returns the bases and the chosen dimensions.
func GlobalBases(theta *mat.Dense, labels []int, l, targetDim int) ([]*mat.Dense, []int) {
	n := theta.Rows()
	members := make([][]int, l)
	for j, g := range labels {
		if g >= 0 && g < l {
			members[g] = append(members[g], j)
		}
	}
	bases := make([]*mat.Dense, l)
	dims := make([]int, l)
	for g := 0; g < l; g++ {
		if len(members[g]) == 0 {
			bases[g] = mat.NewDense(n, 0)
			continue
		}
		sub := theta.SelectCols(members[g])
		basis, _ := clusterBasis(sub, targetDim)
		bases[g] = basis
		dims[g] = basis.Cols()
	}
	return bases, dims
}

// BuildModel packs per-global-cluster bases estimated from the pooled
// sample matrix into a serving artifact. theta and labels are the Phase 2
// inputs/outputs (columns = samples); see GlobalBases for targetDim.
func BuildModel(theta *mat.Dense, labels []int, l, targetDim int, method CentralMethod) (*Model, error) {
	if theta.Cols() != len(labels) {
		return nil, fmt.Errorf("core: %d samples but %d labels", theta.Cols(), len(labels))
	}
	if l <= 0 {
		return nil, fmt.Errorf("core: non-positive cluster count %d", l)
	}
	if theta.Rows() <= 0 {
		return nil, fmt.Errorf("core: empty sample matrix")
	}
	bases, _ := GlobalBases(theta, labels, l, targetDim)
	counts := make([]int, l)
	for _, g := range labels {
		if g >= 0 && g < l {
			counts[g]++
		}
	}
	return ModelFromBases(theta.Rows(), bases, counts, method)
}

// ModelFromBases packs already-estimated orthonormal cluster bases into
// a serving artifact: cluster g gets bases[g] with samples[g] recorded
// as its diagnostic sample count (nil samples records zeros). It is the
// splice primitive of continuous federation (internal/fleet): an
// incremental round appends delta-solved bases to a served model's
// existing ones without re-running the original Phase 2.
func ModelFromBases(ambient int, bases []*mat.Dense, samples []int, method CentralMethod) (*Model, error) {
	if ambient <= 0 {
		return nil, fmt.Errorf("core: non-positive ambient dimension %d", ambient)
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("core: no cluster bases")
	}
	if samples != nil && len(samples) != len(bases) {
		return nil, fmt.Errorf("core: %d sample counts for %d bases", len(samples), len(bases))
	}
	m := &Model{
		Version: ModelVersion,
		Ambient: ambient,
		L:       len(bases),
		Method:  string(method),
	}
	for g, b := range bases {
		if b.Rows() != ambient {
			return nil, fmt.Errorf("core: cluster %d basis lives in %d dims, want %d", g, b.Rows(), ambient)
		}
		count := 0
		if samples != nil {
			count = samples[g]
		}
		data := make([]float64, len(b.Data()))
		copy(data, b.Data())
		m.Clusters = append(m.Clusters, ClusterBasis{Dim: b.Cols(), Data: data, Samples: count})
	}
	m.Seal()
	return m, nil
}

// ModelFromResult builds the serving artifact from a completed in-process
// run: it re-pools the retained Phase 1 samples and their server labels.
// targetDim is as in GlobalBases.
func ModelFromResult(res Result, l, targetDim int, method CentralMethod) (*Model, error) {
	if len(res.Locals) == 0 {
		return nil, fmt.Errorf("core: result retains no local phase output")
	}
	matrices := make([]*mat.Dense, len(res.Locals))
	var labels []int
	for dev, lr := range res.Locals {
		matrices[dev] = lr.Samples
		spc := 1
		if lr.R() > 0 {
			spc = lr.Samples.Cols() / lr.R()
		}
		for t := 0; t < lr.R(); t++ {
			for s := 0; s < spc; s++ {
				labels = append(labels, res.SampleLabels[dev][t])
			}
		}
	}
	theta := mat.HStack(matrices...)
	return BuildModel(theta, labels, l, targetDim, method)
}
