package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"fedsc/internal/store"
)

// TestModelsExposeDigestAcrossRollback is the fleet-rollback
// observability regression test: /v1/models must carry the full store
// digest of every load, so retagging a manifest name back to an
// earlier artifact (a rollback) is visible from the serving side as
// the active entry's digest reverting to the prior content address.
func TestModelsExposeDigestAcrossRollback(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	v1 := axisModel(t, []int{0, 1})
	v2 := axisModel(t, []int{1, 0})
	digest1, err := st.PutTagged("fleet", v1)
	if err != nil {
		t.Fatalf("put v1: %v", err)
	}
	reg := NewRegistry()
	if _, err := reg.UseStore(st); err != nil {
		t.Fatalf("use store: %v", err)
	}

	activeDigest := func() string {
		t.Helper()
		for _, mi := range reg.Models() {
			if mi.Active && mi.Name == "fleet" {
				if mi.Digest == "" {
					t.Fatal("active entry has no digest")
				}
				return mi.Digest
			}
		}
		t.Fatal("no active fleet entry in /v1/models history")
		return ""
	}
	if got := activeDigest(); got != digest1 {
		t.Fatalf("initial digest %s, want %s", got, digest1)
	}

	// Roll forward: retag the name to a new artifact.
	digest2, err := st.PutTagged("fleet", v2)
	if err != nil {
		t.Fatalf("put v2: %v", err)
	}
	if digest2 == digest1 {
		t.Fatal("test models collide")
	}
	if _, err := reg.Reload(); err != nil {
		t.Fatalf("sync after roll-forward: %v", err)
	}
	if got := activeDigest(); got != digest2 {
		t.Fatalf("post-upgrade digest %s, want %s", got, digest2)
	}

	// Roll back: the manifest points the tag at the old blob again; the
	// served digest must revert to exactly the prior content address.
	if err := st.Tag("fleet", digest1); err != nil {
		t.Fatalf("rollback tag: %v", err)
	}
	if _, err := reg.Reload(); err != nil {
		t.Fatalf("sync after rollback: %v", err)
	}
	if got := activeDigest(); got != digest1 {
		t.Fatalf("post-rollback digest %s, want exact prior %s", got, digest1)
	}

	// The digest also crosses the HTTP surface.
	base, stop := startServer(t, reg)
	defer stop()
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	defer resp.Body.Close()
	var models []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatalf("decode models: %v", err)
	}
	found := false
	for _, mi := range models {
		if mi.Active && mi.Name == "fleet" {
			found = true
			if mi.Digest != digest1 {
				t.Fatalf("HTTP digest %s, want %s", mi.Digest, digest1)
			}
		}
	}
	if !found {
		t.Fatal("active fleet entry missing from HTTP /v1/models")
	}
}
