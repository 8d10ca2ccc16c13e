package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedsc/internal/core"
)

// testModel builds a tiny sealed artifact whose cluster bases are
// distinct axis pairs, so different seeds yield different checksums.
func testModel(t *testing.T, shift int) *core.Model {
	t.Helper()
	const ambient, l = 4, 2
	m := &core.Model{Version: core.ModelVersion, Ambient: ambient, L: l, Method: "ssc",
		CreatedUnixNano: 1}
	for g := 0; g < l; g++ {
		data := make([]float64, ambient)
		data[(g+shift)%ambient] = 1
		m.Clusters = append(m.Clusters, core.ClusterBasis{Dim: 1, Data: data, Samples: 1})
	}
	m.Seal()
	if err := m.Validate(); err != nil {
		t.Fatalf("test model invalid: %v", err)
	}
	return m
}

// TestRoundTripBitExact is the acceptance regression: a model stored
// and loaded back must carry the identical checksum and payload.
func TestRoundTripBitExact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m := testModel(t, 0)
	digest, err := s.Put(m)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if digest != Digest(m) {
		t.Fatalf("put returned digest %s, model digests to %s", digest, Digest(m))
	}
	got, err := s.Get(digest)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got.Checksum != m.Checksum {
		t.Fatalf("checksum changed across store round-trip: %x vs %x", got.Checksum, m.Checksum)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("model changed across store round-trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m := testModel(t, 0)
	d1, err := s.Put(m)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	d2, err := s.Put(m)
	if err != nil {
		t.Fatalf("second put: %v", err)
	}
	if d1 != d2 {
		t.Fatalf("same model stored under two digests: %s vs %s", d1, d2)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Blobs != 1 {
		t.Fatalf("%d blobs after duplicate put, want 1", st.Blobs)
	}
}

func TestTagResolveDefault(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	a, b := testModel(t, 0), testModel(t, 1)
	da, err := s.PutTagged("alpha", a)
	if err != nil {
		t.Fatalf("put alpha: %v", err)
	}
	db, err := s.PutTagged("beta", b)
	if err != nil {
		t.Fatalf("put beta: %v", err)
	}
	if da == db {
		t.Fatalf("distinct models share digest %s", da)
	}
	man := s.Manifest()
	if man.Default != "alpha" {
		t.Fatalf("first tag did not become default: %q", man.Default)
	}
	if got := man.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("names %v", got)
	}
	if err := s.SetDefault("beta"); err != nil {
		t.Fatalf("set default: %v", err)
	}
	got, digest, err := s.Load("beta")
	if err != nil {
		t.Fatalf("load beta: %v", err)
	}
	if digest != db || got.Checksum != b.Checksum {
		t.Fatalf("load beta returned digest %s checksum %x", digest, got.Checksum)
	}
	// Untagging the default falls back to the smallest remaining name.
	if err := s.Untag("beta"); err != nil {
		t.Fatalf("untag: %v", err)
	}
	if man := s.Manifest(); man.Default != "alpha" || len(man.Models) != 1 {
		t.Fatalf("after untag: %+v", man)
	}
	if err := s.Tag("bad", strings.Repeat("ab", 32)); err == nil {
		t.Fatal("tagging an unstored digest succeeded")
	}
	if err := s.Tag("evil/name", da); err == nil {
		t.Fatal("path-like model name accepted")
	}
}

// TestSyncSeesExternalManifest covers the watcher-free hot-reload hook:
// a second store handle (standing in for another process) rewrites the
// manifest; Sync on the first handle must report the change exactly
// once and expose the new mapping.
func TestSyncSeesExternalManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if changed, err := s.Sync(); err != nil || changed {
		t.Fatalf("sync on empty store: changed=%v err=%v", changed, err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatalf("open second handle: %v", err)
	}
	m := testModel(t, 0)
	digest, err := other.PutTagged("live", m)
	if err != nil {
		t.Fatalf("put via second handle: %v", err)
	}
	changed, err := s.Sync()
	if err != nil || !changed {
		t.Fatalf("sync after external tag: changed=%v err=%v", changed, err)
	}
	if d, ok := s.Resolve("live"); !ok || d != digest {
		t.Fatalf("resolve after sync: %q %v", d, ok)
	}
	if changed, err := s.Sync(); err != nil || changed {
		t.Fatalf("idle sync reported change: changed=%v err=%v", changed, err)
	}
	// Deleting the manifest is a legal rollback to empty.
	if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatalf("remove manifest: %v", err)
	}
	if changed, err := s.Sync(); err != nil || !changed {
		t.Fatalf("sync after manifest removal: changed=%v err=%v", changed, err)
	}
	if len(s.Manifest().Models) != 0 {
		t.Fatal("manifest entries survived file removal")
	}
}

func TestSyncRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, bad := range []string{
		`{`,
		`{"version": 99, "models": {}}`,
		`{"version": 1, "models": {"x": "nothex"}}`,
		`{"version": 1, "default": "ghost", "models": {}}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(bad), 0o644); err != nil {
			t.Fatalf("write manifest: %v", err)
		}
		if _, err := s.Sync(); err == nil {
			t.Fatalf("sync accepted corrupt manifest %q", bad)
		}
	}
}

// TestGCKeepsReferencedBlobs is the acceptance regression: GC must
// never remove a manifest-referenced blob, must remove unreferenced
// ones, and must honor the minimum-age guard.
func TestGCKeepsReferencedBlobs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	kept := testModel(t, 0)
	orphan := testModel(t, 1)
	keptDigest, err := s.PutTagged("kept", kept)
	if err != nil {
		t.Fatalf("put kept: %v", err)
	}
	orphanDigest, err := s.Put(orphan)
	if err != nil {
		t.Fatalf("put orphan: %v", err)
	}
	// A fresh unreferenced blob survives an aged GC (the Put→Tag window).
	if removed, _, err := s.GC(time.Hour); err != nil || removed != 0 {
		t.Fatalf("aged gc: removed=%d err=%v", removed, err)
	}
	removed, freed, err := s.GC(0)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if removed != 1 || freed <= 0 {
		t.Fatalf("gc removed %d blobs (%d bytes), want exactly the orphan", removed, freed)
	}
	if _, err := s.Get(orphanDigest); err == nil {
		t.Fatal("orphan blob survived gc")
	}
	if _, err := s.Get(keptDigest); err != nil {
		t.Fatalf("referenced blob removed by gc: %v", err)
	}
	// Repeated GC is a no-op.
	if removed, _, err := s.GC(0); err != nil || removed != 0 {
		t.Fatalf("second gc: removed=%d err=%v", removed, err)
	}
}

// TestGCHonorsExternalReferences: a reference added by another handle
// after this handle's last sync must still protect its blob, because GC
// re-reads the manifest before collecting.
func TestGCHonorsExternalReferences(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatalf("open second handle: %v", err)
	}
	m := testModel(t, 2)
	digest, err := other.PutTagged("external", m)
	if err != nil {
		t.Fatalf("external put: %v", err)
	}
	if removed, _, err := s.GC(0); err != nil || removed != 0 {
		t.Fatalf("gc collected an externally referenced blob: removed=%d err=%v", removed, err)
	}
	if _, err := s.Get(digest); err != nil {
		t.Fatalf("externally referenced blob gone: %v", err)
	}
}

func TestGetDetectsMisfiledBlob(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m := testModel(t, 0)
	digest, err := s.Put(m)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	wrong := strings.Repeat("00", 32)
	if err := os.Rename(s.blobPath(digest), s.blobPath(wrong)); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := s.Get(wrong); err == nil {
		t.Fatal("misfiled blob loaded without error")
	}
}

// TestGetRejectsFlippedPayloadByte: one flipped bit inside a stored
// basis float must fail Get on the model checksum, not load a silently
// different model.
func TestGetRejectsFlippedPayloadByte(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	digest, err := s.Put(testModel(t, 0))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	raw, err := os.ReadFile(s.blobPath(digest))
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	// Gob writes a float64 byte-reversed, so each basis entry 1.0
	// (0x3ff0000000000000) is stored as the bytes f0 3f.
	i := bytes.Index(raw, []byte{0xf0, 0x3f})
	if i < 0 {
		t.Fatal("no basis float found in blob")
	}
	raw[i] ^= 0x01
	if err := os.WriteFile(s.blobPath(digest), raw, 0o644); err != nil {
		t.Fatalf("write blob: %v", err)
	}
	_, err = s.Get(digest)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("get of corrupted blob: %v, want checksum mismatch", err)
	}
}

func TestNoStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := s.PutTagged("a", testModel(t, 0)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := s.PutTagged("b", testModel(t, 1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".fedsc-") {
			t.Errorf("stray temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Blobs != 2 || st.ManifestEntries != 2 || st.Default != "a" || st.BlobBytes <= 0 {
		t.Fatalf("stats %+v", st)
	}
}
