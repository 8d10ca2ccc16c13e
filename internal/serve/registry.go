package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/store"
)

// Snapshot is one loaded model plus its precomputed engine. Snapshots
// are immutable; the registry swaps whole model sets atomically, so a
// request in flight keeps scoring against the snapshot it started with
// even while a reload lands.
type Snapshot struct {
	// Name identifies the model: a manifest entry or a caller-supplied
	// tag.
	Name     string
	Engine   *Engine
	Model    *core.Model
	LoadedAt time.Time
	// Seq is the registry-wide monotonic load sequence number. It is the
	// snapshot's identity: two loads of the same artifact within one
	// clock tick share LoadedAt and checksum but never Seq.
	Seq uint64
	// Digest is the full hex SHA-256 content address of the artifact.
	Digest string
}

// ModelInfo is the /v1/models view of one registry load.
type ModelInfo struct {
	Name     string    `json:"name"`
	Ambient  int       `json:"ambient"`
	L        int       `json:"clusters"`
	Method   string    `json:"method"`
	Created  time.Time `json:"created"`
	LoadedAt time.Time `json:"loaded_at"`
	Checksum string    `json:"checksum"`
	// Digest is the full hex SHA-256 content address of the artifact —
	// the same string the store manifest maps the tag (Name) to, so a
	// fleet rollback is observable from the serving side: after the
	// manifest retags and the registry syncs, the active entry for the
	// tag carries the restored digest.
	Digest  string `json:"digest"`
	Seq     uint64 `json:"seq"`
	Active  bool   `json:"active"`
	Default bool   `json:"default,omitempty"`
}

// historyCap bounds the load log. A long-lived server hot-reloading
// every few minutes would otherwise grow the history without bound;
// only the most recent loads are of operational interest.
const historyCap = 32

// modelSet is the immutable routing table readers resolve against: one
// atomic pointer load yields every served model plus the default name.
type modelSet struct {
	def    string
	byName map[string]*Snapshot
	// maxAmbient is the widest served model's ambient dimension; it
	// sizes the /v1/assign body limit.
	maxAmbient int
}

var emptySet = &modelSet{byName: map[string]*Snapshot{}}

// Registry holds the served models and the history of loads. Readers
// (the request handlers) take the current model set with a single
// atomic pointer load per request; writers (SetModel, Reload) build new
// engines off to the side and swap the whole set atomically — a hot
// deploy never blocks serving.
type Registry struct {
	set     atomic.Pointer[modelSet]
	nextSeq atomic.Uint64

	mu      sync.Mutex
	st      *store.Store // bound by UseStore; nil until then
	history []ModelInfo
}

// NewRegistry returns an empty registry; Serve reports unhealthy until
// the first model is set.
func NewRegistry() *Registry {
	r := &Registry{}
	r.set.Store(emptySet)
	return r
}

// Get resolves a model name to its snapshot; the empty name routes to
// the default model. It returns nil for unknown names.
func (r *Registry) Get(name string) *Snapshot {
	set := r.set.Load()
	if name == "" {
		name = set.def
	}
	return set.byName[name]
}

// Names returns the served model names in sorted order.
func (r *Registry) Names() []string {
	set := r.set.Load()
	names := make([]string, 0, len(set.byName))
	for name := range set.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// maxAmbient returns the widest served model's ambient dimension, or
// zero before the first load.
func (r *Registry) maxAmbient() int { return r.set.Load().maxAmbient }

// newSnapshot builds the engine for m under the next sequence number.
func (r *Registry) newSnapshot(name string, m *core.Model) (*Snapshot, error) {
	eng, err := NewEngine(m)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Name:     name,
		Engine:   eng,
		Model:    m,
		LoadedAt: time.Now(),
		Seq:      r.nextSeq.Add(1),
		Digest:   store.Digest(m),
	}, nil
}

// swapLocked publishes a modified copy of the current set. Callers hold
// r.mu; mutate edits the fresh copy in place.
func (r *Registry) swapLocked(mutate func(set *modelSet)) {
	old := r.set.Load()
	next := &modelSet{def: old.def, byName: make(map[string]*Snapshot, len(old.byName)+1)}
	for name, snap := range old.byName {
		next.byName[name] = snap
	}
	mutate(next)
	if _, ok := next.byName[next.def]; !ok {
		next.def = ""
		if len(next.byName) > 0 {
			names := make([]string, 0, len(next.byName))
			for name := range next.byName {
				names = append(names, name)
			}
			sort.Strings(names)
			next.def = names[0]
		}
	}
	for _, snap := range next.byName {
		next.maxAmbient = max(next.maxAmbient, snap.Model.Ambient)
	}
	r.set.Store(next)
}

// recordLocked appends the snapshot to the bounded load history.
func (r *Registry) recordLocked(snap *Snapshot) {
	m := snap.Model
	r.history = append(r.history, ModelInfo{
		Name:     snap.Name,
		Ambient:  m.Ambient,
		L:        m.L,
		Method:   m.Method,
		Created:  m.Created(),
		LoadedAt: snap.LoadedAt,
		Checksum: checksumHex(m),
		Digest:   snap.Digest,
		Seq:      snap.Seq,
	})
	if len(r.history) > historyCap {
		r.history = append(r.history[:0:0], r.history[len(r.history)-historyCap:]...)
	}
}

// SetModel builds the engine for m and atomically adds it to (or
// replaces it in) the served set under the given name. The first model
// ever set becomes the default route.
func (r *Registry) SetModel(name string, m *core.Model) error {
	snap, err := r.newSnapshot(name, m)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.swapLocked(func(set *modelSet) {
		set.byName[name] = snap
		if set.def == "" {
			set.def = name
		}
	})
	r.recordLocked(snap)
	return nil
}

// checksumHex is the short artifact digest shown in /v1/models.
func checksumHex(m *core.Model) string {
	return fmt.Sprintf("%x", m.Checksum[:8])
}

// UseStore binds the registry to a content-addressed artifact store
// and loads every manifest entry. From then on Reload polls the
// manifest: added or retagged names get fresh engines,
// removed names stop being served, and the manifest default becomes
// the default route.
func (r *Registry) UseStore(st *store.Store) ([]string, error) {
	r.mu.Lock()
	r.st = st
	r.mu.Unlock()
	return r.Reload()
}

// Reload re-reads the bound store's manifest and reconciles the
// served set against it, returning the names that changed (loaded,
// replaced, or removed) in sorted order. Engines are built before the
// swap, so readers always resolve against a complete set; a request
// in flight finishes on the snapshot it resolved.
func (r *Registry) Reload() ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.st == nil {
		return nil, fmt.Errorf("serve: no store bound for reload")
	}
	if _, err := r.st.Sync(); err != nil {
		return nil, err
	}
	man := r.st.Manifest()
	cur := r.set.Load()
	var changed []string
	loaded := map[string]*Snapshot{}
	for _, name := range man.Names() {
		digest := man.Models[name]
		if snap := cur.byName[name]; snap != nil && snap.Digest == digest {
			continue // unchanged entry keeps its snapshot (and Seq)
		}
		m, err := r.st.Get(digest)
		if err != nil {
			return nil, fmt.Errorf("serve: sync %q: %w", name, err)
		}
		snap, err := r.newSnapshot(name, m)
		if err != nil {
			return nil, fmt.Errorf("serve: sync %q: %w", name, err)
		}
		loaded[name] = snap
		changed = append(changed, name)
	}
	for name := range cur.byName {
		if _, ok := man.Models[name]; !ok {
			changed = append(changed, name)
		}
	}
	r.swapLocked(func(set *modelSet) {
		for name := range set.byName {
			if _, ok := man.Models[name]; !ok {
				delete(set.byName, name)
			}
		}
		for name, snap := range loaded {
			set.byName[name] = snap
		}
		if _, ok := set.byName[man.Default]; ok {
			set.def = man.Default
		}
	})
	names := make([]string, 0, len(loaded))
	for name := range loaded {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.recordLocked(loaded[name])
	}
	sort.Strings(changed)
	return changed, nil
}

// Models lists the retained loads in order (most recent historyCap),
// marking active by load sequence number — an entry is active exactly
// when its Seq belongs to a snapshot readers can still resolve. Seq is
// allocated per load, so even two loads of the identical artifact
// within one clock tick (equal LoadedAt and checksum) stay
// distinguishable.
func (r *Registry) Models() []ModelInfo {
	set := r.set.Load()
	live := make(map[uint64]bool, len(set.byName))
	var defSeq uint64
	for name, snap := range set.byName {
		live[snap.Seq] = true
		if name == set.def {
			defSeq = snap.Seq
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelInfo, len(r.history))
	copy(out, r.history)
	for i := range out {
		out[i].Active = live[out[i].Seq]
		out[i].Default = out[i].Seq == defSeq && defSeq != 0
	}
	return out
}
