// Package store is the content-addressed artifact layer between
// training output and serving: completed rounds Put their core.Model
// into a Store, the serving tier maps human-readable names to the
// stored artifacts through a small manifest, and hot deploys are a
// manifest rewrite plus a Sync() poll — no artifact is ever modified
// in place.
//
// On-disk layout under the store root:
//
//	blobs/sha256/<64-hex digest>   gob model artifacts, content-addressed
//	manifest.json                  {"version":1,"default":…,"models":{name:digest}}
//
// Blobs are keyed by the model's own SHA-256 checksum (the digest the
// artifact format already computes and verifies), so identical models
// deduplicate and a blob can never change meaning. Every write — blob
// or manifest — goes through a temp file plus rename, so concurrent
// readers (and a serving process polling Sync) observe either the old
// or the new state, never a partial file.
package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fedsc/internal/core"
)

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

const (
	manifestFile = "manifest.json"
	blobSubdir   = "blobs/sha256"
)

// Manifest maps human-readable model names to blob digests. Default
// names the entry a router should use when a request does not pick a
// model explicitly.
type Manifest struct {
	Version int               `json:"version"`
	Default string            `json:"default,omitempty"`
	Models  map[string]string `json:"models"`
}

// clone deep-copies the manifest so callers can hold it without racing
// later store mutations.
func (m Manifest) clone() Manifest {
	out := Manifest{Version: m.Version, Default: m.Default, Models: make(map[string]string, len(m.Models))}
	for name, digest := range m.Models {
		out.Models[name] = digest
	}
	return out
}

// Names returns the manifest's model names in sorted order.
func (m Manifest) Names() []string {
	names := make([]string, 0, len(m.Models))
	for name := range m.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats summarizes the store for operational endpoints.
type Stats struct {
	// Blobs is the number of stored artifacts (referenced or not).
	Blobs int `json:"blobs"`
	// BlobBytes is the total size of all stored artifacts.
	BlobBytes int64 `json:"blob_bytes"`
	// ManifestEntries is the number of named models.
	ManifestEntries int `json:"manifest_entries"`
	// Default is the manifest's default model name ("" when unset).
	Default string `json:"default,omitempty"`
}

// Store is a content-addressed model artifact store rooted at one
// directory. All methods are safe for concurrent use within a process;
// across processes, atomic renames keep readers consistent, and GC
// takes a minimum blob age so it cannot delete another process's
// freshly written, not-yet-tagged artifact.
type Store struct {
	root string

	mu  sync.Mutex
	man Manifest
	// manRaw is the manifest file content the cached manifest was parsed
	// from; Sync detects external edits by byte comparison, which is
	// immune to the mtime-granularity ambiguity a timestamp check has.
	manRaw []byte
}

// Open opens (creating if needed) the store rooted at dir and loads its
// manifest.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobSubdir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{root: dir, man: Manifest{Version: ManifestVersion, Models: map[string]string{}}}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.syncLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Digest returns the content address of a sealed model: the hex of the
// SHA-256 checksum the artifact format already carries.
func Digest(m *core.Model) string { return hex.EncodeToString(m.Checksum[:]) }

func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.root, blobSubdir, digest)
}

func (s *Store) manifestPath() string { return filepath.Join(s.root, manifestFile) }

// validDigest reports whether d looks like a sha256 hex digest.
func validDigest(d string) bool {
	if len(d) != hex.EncodedLen(32) {
		return false
	}
	_, err := hex.DecodeString(d)
	return err == nil
}

// validName rejects names that would escape the manifest's flat
// namespace or render ambiguously in URLs and metric labels.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty model name")
	}
	if strings.ContainsAny(name, "/\\\n\"") {
		return fmt.Errorf("store: model name %q contains path or quote characters", name)
	}
	return nil
}

// Put writes the sealed model into the blob area under its content
// address and returns the digest. Writing an artifact that is already
// stored is a no-op (content addressing: same digest, same bytes).
// The blob is not reachable by name until Tag links it.
func (s *Store) Put(m *core.Model) (string, error) {
	if err := m.Validate(); err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	digest := Digest(m)
	path := s.blobPath(digest)
	if _, err := os.Stat(path); err == nil {
		return digest, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".fedsc-blob-*")
	if err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := m.Encode(tmp); err != nil {
		_ = tmp.Close()
		return "", fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("store: put: %w", err)
	}
	return digest, nil
}

// Tag points name at an already-stored digest and persists the
// manifest. The first tag ever recorded also becomes the default.
func (s *Store) Tag(name, digest string) error {
	if err := validName(name); err != nil {
		return err
	}
	if !validDigest(digest) {
		return fmt.Errorf("store: tag %q: malformed digest %q", name, digest)
	}
	if _, err := os.Stat(s.blobPath(digest)); err != nil {
		return fmt.Errorf("store: tag %q: blob %s not stored: %w", name, digest, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Models[name] = digest
	if s.man.Default == "" {
		s.man.Default = name
	}
	return s.writeManifestLocked()
}

// PutTagged stores the model and tags it under name in one call — the
// common "deploy this round's artifact" path.
func (s *Store) PutTagged(name string, m *core.Model) (string, error) {
	digest, err := s.Put(m)
	if err != nil {
		return "", err
	}
	return digest, s.Tag(name, digest)
}

// Untag removes a name from the manifest (the blob stays until GC).
func (s *Store) Untag(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.man.Models[name]; !ok {
		return fmt.Errorf("store: untag %q: not in manifest", name)
	}
	delete(s.man.Models, name)
	if s.man.Default == name {
		s.man.Default = ""
		if names := s.man.Names(); len(names) > 0 {
			s.man.Default = names[0]
		}
	}
	return s.writeManifestLocked()
}

// SetDefault makes name the manifest's default model.
func (s *Store) SetDefault(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.man.Models[name]; !ok {
		return fmt.Errorf("store: set default %q: not in manifest", name)
	}
	s.man.Default = name
	return s.writeManifestLocked()
}

// Get loads and verifies the artifact stored under digest. Beyond the
// model's own checksum validation, it confirms the content address
// matches — a blob renamed to the wrong digest fails loudly.
func (s *Store) Get(digest string) (*core.Model, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("store: get: malformed digest %q", digest)
	}
	f, err := os.Open(s.blobPath(digest))
	if err != nil {
		return nil, fmt.Errorf("store: get %s: %w", digest, err)
	}
	// Read-only descriptor: Close cannot lose data.
	defer func() { _ = f.Close() }()
	m, err := core.DecodeModel(f)
	if err != nil {
		return nil, fmt.Errorf("store: get %s: %w", digest, err)
	}
	if got := Digest(m); got != digest {
		return nil, fmt.Errorf("store: blob %s decodes to digest %s (store corrupted)", digest, got)
	}
	return m, nil
}

// Resolve returns the digest name points at.
func (s *Store) Resolve(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	digest, ok := s.man.Models[name]
	return digest, ok
}

// Load resolves name and loads its artifact, returning the model and
// its digest.
func (s *Store) Load(name string) (*core.Model, string, error) {
	digest, ok := s.Resolve(name)
	if !ok {
		return nil, "", fmt.Errorf("store: model %q not in manifest", name)
	}
	m, err := s.Get(digest)
	return m, digest, err
}

// Manifest returns a copy of the current manifest.
func (s *Store) Manifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.clone()
}

// Sync re-reads the manifest file and reports whether it changed since
// the last load. It is the watcher-free hot-reload hook: a serving
// process polls Sync (or calls it on /v1/reload) and rebuilds engines
// only when the manifest content actually moved. A missing manifest
// file is an empty manifest, not an error.
func (s *Store) Sync() (changed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() (bool, error) {
	raw, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		changed := len(s.man.Models) > 0 || s.man.Default != ""
		s.man = Manifest{Version: ManifestVersion, Models: map[string]string{}}
		s.manRaw = nil
		return changed, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: sync: %w", err)
	}
	if bytes.Equal(raw, s.manRaw) {
		return false, nil
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return false, fmt.Errorf("store: sync: parse manifest: %w", err)
	}
	if man.Version <= 0 || man.Version > ManifestVersion {
		return false, fmt.Errorf("store: sync: unsupported manifest version %d (understand up to %d)", man.Version, ManifestVersion)
	}
	if man.Models == nil {
		man.Models = map[string]string{}
	}
	for _, name := range man.Names() {
		if err := validName(name); err != nil {
			return false, fmt.Errorf("store: sync: %w", err)
		}
		if d := man.Models[name]; !validDigest(d) {
			return false, fmt.Errorf("store: sync: model %q has malformed digest %q", name, d)
		}
	}
	if man.Default != "" {
		if _, ok := man.Models[man.Default]; !ok {
			return false, fmt.Errorf("store: sync: default %q not in manifest", man.Default)
		}
	}
	s.man = man
	s.manRaw = raw
	return true, nil
}

// writeManifestLocked persists the cached manifest atomically and
// records the written bytes as the new Sync baseline.
func (s *Store) writeManifestLocked() error {
	raw, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	raw = append(raw, '\n')
	tmp, err := os.CreateTemp(s.root, ".fedsc-manifest-*")
	if err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	// Deadline decision: local-disk manifest writes are deliberately
	// unbounded — blocking on a wedged filesystem beats publishing a
	// truncated manifest. (os.File carries the net.Conn deadline surface,
	// so the ctxdeadline contract asks this to be written down.)
	_ = tmp.SetWriteDeadline(time.Time{})
	if _, err := tmp.Write(raw); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.manifestPath()); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	s.manRaw = raw
	return nil
}

// GC deletes blobs the manifest does not reference and returns how many
// were removed and how many bytes they held. The manifest is re-read
// from disk first, so references written by other processes are always
// honored. minAge guards the Put→Tag window: blobs younger than it are
// never collected even when unreferenced (pass 0 only when no writer
// can be mid-deploy).
func (s *Store) GC(minAge time.Duration) (removed int, freed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.syncLocked(); err != nil {
		return 0, 0, err
	}
	referenced := make(map[string]bool, len(s.man.Models))
	for _, digest := range s.man.Models {
		referenced[digest] = true
	}
	entries, err := os.ReadDir(filepath.Join(s.root, blobSubdir))
	if err != nil {
		return 0, 0, fmt.Errorf("store: gc: %w", err)
	}
	cutoff := time.Now().Add(-minAge)
	for _, e := range entries {
		name := e.Name()
		if !validDigest(name) || referenced[name] {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced a concurrent delete
		}
		if minAge > 0 && info.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(s.blobPath(name)); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return removed, freed, fmt.Errorf("store: gc: %w", err)
		}
		removed++
		freed += info.Size()
	}
	return removed, freed, nil
}

// Stats reports blob count/bytes and manifest size for operational
// visibility (the -debug-addr /storez endpoint).
func (s *Store) Stats() (Stats, error) {
	s.mu.Lock()
	man := s.man.clone()
	s.mu.Unlock()
	entries, err := os.ReadDir(filepath.Join(s.root, blobSubdir))
	if err != nil {
		return Stats{}, fmt.Errorf("store: stats: %w", err)
	}
	st := Stats{ManifestEntries: len(man.Models), Default: man.Default}
	for _, e := range entries {
		if !validDigest(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		st.Blobs++
		st.BlobBytes += info.Size()
	}
	return st, nil
}
