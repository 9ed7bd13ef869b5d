// Persistent autotune store attachment: the engine's plan cache and the
// process kernel memo serialized to disk (internal/store) and reloaded
// at construction, so a cold process starts with the install-time and
// run-time stages already paid for every stored shape.
//
// The store is keyed by the tuning fingerprint (machine profile +
// tuning knobs + layout/dtype version). Loading is forgiving by design:
// an absent file is a cold start, a fingerprint/version mismatch or a
// corrupt file is counted and ignored, and the engine falls back to
// live tuning — the store can never make a correct call incorrect,
// because hydration replays the exact plan constructors against kernel
// schedules that are bit-equal to what this process would build.
package engine

import (
	"errors"
	"io/fs"

	"iatf/internal/core"
	"iatf/internal/machine"
	"iatf/internal/matrix"
	"iatf/internal/store"
	"iatf/internal/vec"
)

// StoreStats is the persistent-store slice of Stats.
type StoreStats struct {
	Path        string // attached store file ("" = no store)
	Fingerprint string // this engine's tuning fingerprint

	Loads           uint64 // successful store loads
	LoadMismatches  uint64 // files ignored for fingerprint/version skew
	LoadErrors      uint64 // corrupt or unreadable files (absent files are not errors)
	Saves           uint64 // successful store writes
	SaveErrors      uint64 // failed store writes
	KernelsImported uint64 // kernel schedules imported from loaded stores
	// PlansRejected counts stored plan descriptors no live call could
	// have saved, which hydration skips: an unknown kind, dtype or mode,
	// a negative dimension, a count bucket that is not a power of two,
	// or a shape the plan constructors refuse.
	PlansRejected uint64
}

// Add accumulates another engine's store counters (EngineSet aggregate).
// Path and Fingerprint are shared set-wide, so the first non-empty value
// wins.
func (s *StoreStats) Add(o StoreStats) {
	if s.Path == "" {
		s.Path = o.Path
	}
	if s.Fingerprint == "" {
		s.Fingerprint = o.Fingerprint
	}
	s.Loads += o.Loads
	s.LoadMismatches += o.LoadMismatches
	s.LoadErrors += o.LoadErrors
	s.Saves += o.Saves
	s.SaveErrors += o.SaveErrors
	s.KernelsImported += o.KernelsImported
	s.PlansRejected += o.PlansRejected
}

func (e *Engine) storeStats() StoreStats {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	st := e.storeState
	st.Path, st.Fingerprint = e.storePath, e.fp
	return st
}

// Fingerprint returns the engine tuning's store fingerprint.
func (e *Engine) Fingerprint() string { return e.fp }

// hydrate imports f's kernel schedules, installs each stored plan on the
// shard its key's identity homes on, and counts the load on shard 0. A
// descriptor keyOfDesc or the plan constructors reject is skipped and
// counted: the file may be corrupt, hostile or from a newer writer.
func (s *Set) hydrate(f *store.File) {
	kernels, rejected := core.ImportKernels(f.Kernels), 0
	for _, d := range f.Plans {
		key, err := keyOfDesc(d)
		if err == nil {
			err = s.engines[jumpHash(key.identity(), len(s.engines))].hydratePlan(key)
		}
		if err != nil {
			rejected++
		}
	}
	e0 := s.engines[0]
	e0.storeMu.Lock()
	e0.storeState.Loads++
	e0.storeState.KernelsImported += uint64(kernels)
	e0.storeState.PlansRejected += uint64(rejected)
	e0.storeMu.Unlock()
}

// hydratePlan builds key's plan through the live constructor and
// installs it marked hydrated, without touching the hit/miss counters.
// It installs nothing when the entry already exists, and returns the
// build error of a stored descriptor this tuning rejects.
func (e *Engine) hydratePlan(key planKey) error {
	sh := e.planShard(key)
	sh.mu.Lock()
	_, exists := sh.m[key]
	sh.mu.Unlock()
	if exists {
		return nil
	}
	v, err := e.buildForKey(key)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		return nil // raced with a live build; the live plan wins
	}
	if len(sh.m) >= planShardCap {
		sh.evictOne(e)
	}
	sh.m[key] = v
	sh.hydrated[key] = true
	e.planHydrated.Add(1)
	return nil
}

// Warm resolves the plan for one problem descriptor through the regular
// cache path (building it on miss) — the pre-baking primitive behind
// iatf-tune. d.CountBucket may be any batch count: Warm buckets it as a
// live call buckets its count. The build error, if any, is returned so
// tuners can report shapes the tuning rejects.
func (e *Engine) Warm(d store.PlanDesc) error {
	d.CountBucket = countBucket(d.CountBucket)
	key, err := keyOfDesc(d)
	if err != nil {
		return err
	}
	_, _, err = e.plan(key, nil)
	return err
}

// Export snapshots the engine's tuned state as a store file: every plan
// key in the cache plus the process kernel memo's entries for this
// engine's machine profile.
func (e *Engine) Export(tool string) *store.File {
	f := store.New(e.fp, tool)
	f.Kernels = core.ExportKernels(machine.Fingerprint(e.tun.Prof))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for key := range sh.m {
			f.Plans = append(f.Plans, descOfKey(key))
		}
		sh.mu.Unlock()
	}
	return f
}

// descOfKey converts a plan-cache key to its serializable form.
func descOfKey(k planKey) store.PlanDesc {
	return store.PlanDesc{
		Kind: int(k.kind), DType: int(k.dt), M: k.m, N: k.n, K: k.k,
		TransA: int(k.transA), TransB: int(k.transB),
		Side: int(k.side), Uplo: int(k.uplo), Diag: int(k.diag),
		CountBucket: k.countBucket,
	}
}

// keyOfDesc converts a stored descriptor back to a cache key. It rejects
// what no live call produces: kinds this build does not know (a store
// written by a newer version), unknown dtypes and modes, negative
// dimensions, and count buckets that are not powers of two, in every
// field; the key then keeps what its op reads (planKey.read), as a live
// key does. Dimension limits are the plan constructors' own, which live
// calls meet too: a shape too large to plan is refused there before
// anything is built.
func keyOfDesc(d store.PlanDesc) (planKey, error) {
	kind := OpKind(d.Kind)
	if d.Kind < int(OpGEMM) || d.Kind > int(OpLUPiv) {
		return planKey{}, opErr(kind, "", ErrOperand, "unknown op kind %d in store", d.Kind)
	}
	if d.DType < int(vec.S) || d.DType > int(vec.Z) {
		return planKey{}, opErr(kind, "", ErrDType, "unknown dtype %d in store", d.DType)
	}
	for _, m := range [...]int{d.TransA, d.TransB, d.Side, d.Uplo, d.Diag} {
		if m != 0 && m != 1 {
			return planKey{}, opErr(kind, "", ErrOperand, "unknown mode %d in store", m)
		}
	}
	for _, n := range [...]int{d.M, d.N, d.K} {
		if n < 0 {
			return planKey{}, opErr(kind, "", ErrShape, "negative dimension %d in store", n)
		}
	}
	cb := d.CountBucket
	if cb < 1 {
		cb = 1
	}
	if cb&(cb-1) != 0 {
		return planKey{}, opErr(kind, "", ErrCount, "stored count bucket %d is not a power of two", cb)
	}
	key := planKey{
		kind: kind, dt: vec.DType(d.DType), m: d.M, n: d.N, k: d.K,
		transA: matrix.Trans(d.TransA), transB: matrix.Trans(d.TransB),
		side: matrix.Side(d.Side), uplo: matrix.Uplo(d.Uplo), diag: matrix.Diag(d.Diag),
		countBucket: cb,
	}
	key.read()
	return key, nil
}

// SetStorePath attaches a store path to the whole set. Shard 0 carries
// the path for stats; loading and saving are set-level operations. It
// does not load or save by itself — pair with LoadStore/SaveStore. An
// empty path detaches.
func (s *Set) SetStorePath(path string) {
	e0 := s.engines[0]
	e0.storeMu.Lock()
	e0.storePath = path
	e0.storeMu.Unlock()
}

// StorePath returns the set's attached store path ("" = none).
func (s *Set) StorePath() string {
	e0 := s.engines[0]
	e0.storeMu.Lock()
	defer e0.storeMu.Unlock()
	return e0.storePath
}

// Fingerprint returns the set's tuning fingerprint (all shards share
// one tuning).
func (s *Set) Fingerprint() string { return s.engines[0].fp }

// LoadStore reads the set's attached store and hydrates it: stored
// kernel schedules join the process kernel memo once, and every stored
// plan descriptor is replayed through the exact plan constructors into
// its identity's home shard — the shard live traffic routes to —
// counted in Stats.PlanHydrated, never as misses.
//
// Staleness is not an error: an absent file, a fingerprint or format
// mismatch, and a corrupt file all leave the set cold (counted in
// Stats.Store) and return nil. Only unexpected I/O failures are
// returned.
func (s *Set) LoadStore() error {
	e0 := s.engines[0]
	path := s.StorePath()
	if path == "" {
		return nil
	}
	f, err := store.Load(path, e0.fp)
	if err != nil {
		e0.storeMu.Lock()
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Cold start: nothing to load, nothing to count.
		case errors.Is(err, store.ErrMismatch):
			e0.storeState.LoadMismatches++
		default:
			e0.storeState.LoadErrors++
		}
		e0.storeMu.Unlock()
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, store.ErrMismatch) || errors.Is(err, store.ErrCorrupt) {
			return nil
		}
		return err
	}
	s.hydrate(f)
	return nil
}

// SaveStore atomically writes the set's tuned state — the union of
// every shard's plan cache plus the kernel memo — to the attached store
// path (merge-free: the set's current view wins). No-op without a path.
func (s *Set) SaveStore() error {
	e0 := s.engines[0]
	path := s.StorePath()
	if path == "" {
		return nil
	}
	f := e0.Export("engine-flush")
	for _, e := range s.engines[1:] {
		f.Merge(e.Export(""))
	}
	err := f.WriteAtomic(path)
	e0.storeMu.Lock()
	if err != nil {
		e0.storeState.SaveErrors++
	} else {
		e0.storeState.Saves++
	}
	e0.storeMu.Unlock()
	return err
}
