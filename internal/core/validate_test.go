package core_test

import (
	"bytes"
	"testing"

	"fedsc/internal/core"
)

// untiedAmbientModels returns two sealed artifacts whose Ambient no
// basis float backs: one with Ambient 2^40 and no clusters, and one with
// Ambient 2^62 and an empty 4-dimensional cluster, where Ambient·Dim
// wraps to 0 in int arithmetic.
func untiedAmbientModels() []*core.Model {
	noClusters := &core.Model{Version: core.ModelVersion, Ambient: 1 << 40, Method: "ssc", CreatedUnixNano: 1}
	wrapped := &core.Model{Version: core.ModelVersion, Ambient: 1 << 62, L: 1, Method: "ssc", CreatedUnixNano: 1,
		Clusters: []core.ClusterBasis{{Dim: 4}}}
	models := []*core.Model{noClusters, wrapped}
	for _, m := range models {
		m.Seal()
	}
	return models
}

// TestDecodeModelRejectsUntiedAmbient: an artifact must hold at least
// one basis float and every cluster's float count must equal
// Ambient·Dim, so Ambient is bounded by the artifact's size. Otherwise
// a served model's Ambient sets the /v1/assign body limit of every
// model served beside it.
func TestDecodeModelRejectsUntiedAmbient(t *testing.T) {
	for _, m := range untiedAmbientModels() {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted Ambient %d with %d clusters", m.Ambient, m.L)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := core.DecodeModel(&buf); err == nil {
			t.Errorf("DecodeModel accepted Ambient %d with %d clusters", m.Ambient, m.L)
		}
	}
}

// FuzzDecodeModel feeds arbitrary bytes to DecodeModel. It must not
// panic; any model it returns must pass Validate, and Encode followed by
// DecodeModel must give the same checksum.
func FuzzDecodeModel(f *testing.F) {
	_, res, l := runSynthetic(f, 46)
	trained, err := core.ModelFromResult(res, l, 0, core.CentralSSC)
	if err != nil {
		f.Fatalf("ModelFromResult: %v", err)
	}
	for _, m := range append(untiedAmbientModels(), trained) {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			f.Fatalf("encode: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := core.DecodeModel(bytes.NewReader(blob))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("DecodeModel returned an invalid model: %v", err)
		}
		// Encode seals, which stamps a zero creation time; a model that
		// carries one keeps its checksum.
		stamped := m.CreatedUnixNano != 0
		sum := m.Checksum
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if stamped && m.Checksum != sum {
			t.Fatal("Encode changed the checksum of a sealed model")
		}
		back, err := core.DecodeModel(&buf)
		if err != nil {
			t.Fatalf("decode of a re-encoded model: %v", err)
		}
		if back.Checksum != m.Checksum {
			t.Fatal("checksum changed in the round trip")
		}
	})
}
