package engine

import (
	"sync"
	"sync/atomic"

	"iatf/internal/bufpool"
	"iatf/internal/vec"
)

// Packed-operand cache: operands that opt in via Prepack carry a
// process-unique (id, generation) pair, and the engine memoizes their
// packed images per (operand identity + generation, plan key, operand
// role). npackA/npackTri then run once per (operand, shape) and every
// later call jumps straight to the kernel loop; GEMM reads B in place
// and never packs it.
//
// Entries are refcounted: the cache holds one reference, every call that
// is currently executing against the image holds another, so eviction
// (bounded FIFO) and invalidation (generation bump → stale entries
// purged on the next miss) never free storage a kernel is still
// reading. Backing buffers come from bufpool and return there when the
// last reference drops. Concurrent cold misses on one key are
// single-flighted through the entry's done channel: a packed image can
// be large, so unlike a plan it is worth building only once.

// packRole names which operand of the plan an image packs.
type packRole uint8

const (
	roleA packRole = iota
	roleTri
)

// packKey identifies one cached packed image. The plan key carries the
// op kind, so the TRSM (reciprocal-diagonal) and TRMM (true-diagonal)
// triangle images of one operand never collide.
type packKey struct {
	id, gen uint64
	plan    planKey
	role    packRole
}

// packEntry is one cached packed image. refs counts the cache's own
// reference plus every in-flight call using the image; the backing
// buffer returns to bufpool when refs hits zero.
type packEntry struct {
	refs atomic.Int64
	done chan struct{} // closed when the build finishes (single-flight)
	err  error
	data any    // []E packed image, valid when err == nil
	put  func() // returns the backing buffer to bufpool
}

const packCacheCap = 64

type packCache struct {
	mu sync.Mutex
	m  map[packKey]*packEntry
	// order is the FIFO insertion record behind cap eviction. It may
	// contain already-purged keys (eviction skips them); buildPacked
	// compacts it when purges let it drift far past the live set.
	order []packKey

	hits, builds, evictions, stale uint64
}

// PackCacheStats is a snapshot of the packed-operand cache counters.
type PackCacheStats struct {
	Hits      uint64 // calls served from a cached packed image
	Builds    uint64 // cold misses that packed and inserted an image
	Evictions uint64 // entries dropped by the FIFO bound
	Stale     uint64 // entries purged because the operand's generation moved
	Entries   int
}

// Add accumulates another cache's counters into s (EngineSet aggregate).
func (s *PackCacheStats) Add(o PackCacheStats) {
	s.Hits += o.Hits
	s.Builds += o.Builds
	s.Evictions += o.Evictions
	s.Stale += o.Stale
	s.Entries += o.Entries
}

func (pc *packCache) snapshot() PackCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PackCacheStats{
		Hits: pc.hits, Builds: pc.builds,
		Evictions: pc.evictions, Stale: pc.stale,
		Entries: len(pc.m),
	}
}

// release drops one reference (nil-safe); the last one returns the
// buffer.
func (pc *packCache) release(ent *packEntry) {
	if ent != nil && ent.refs.Add(-1) == 0 && ent.put != nil {
		ent.put()
	}
}

// removeLocked unlinks an entry and drops the cache's reference.
// Callers hold pc.mu.
func (pc *packCache) removeLocked(k packKey, ent *packEntry) {
	delete(pc.m, k)
	pc.release(ent)
}

// awaitPacked takes a reference on an entry found under pc.mu, unlocks
// and waits for its build: a hit costs one mutex round and zero
// allocations.
func awaitPacked[E vec.Float](pc *packCache, ent *packEntry) (*packEntry, []E, error) {
	ent.refs.Add(1)
	pc.hits++
	pc.mu.Unlock()
	<-ent.done
	if ent.err != nil {
		pc.release(ent)
		return nil, nil, ent.err
	}
	return ent, ent.data.([]E), nil
}

// buildPacked resolves a miss: it purges stale generations of the same
// (operand, plan, role), reserves an entry, packs the image outside the
// lock and publishes it. A concurrent caller that raced the reservation
// waits on the winner's entry instead of building twice.
func buildPacked[E vec.Float](e *Engine, key packKey, length int, build func([]E) error) (*packEntry, []E, error) {
	pc := &e.packs
	pc.mu.Lock()
	if ent, ok := pc.m[key]; ok {
		return awaitPacked[E](pc, ent) // lost the race to another builder
	}
	for k, old := range pc.m {
		if k.id == key.id && k.role == key.role && k.plan == key.plan && k.gen != key.gen {
			pc.removeLocked(k, old)
			pc.stale++
		}
	}
	// Stale purges and error-path removals unlink entries from pc.m but
	// leave their keys in pc.order (only cap eviction pops the front), so
	// under generation churn — a chained solver invalidating its operands
	// every iteration — order grows without bound while the map stays
	// small. Compact it when it has drifted far past the live set, keeping
	// one occurrence per live key (a key can appear twice after an
	// error-path removal and re-insert; keeping both would let a later cap
	// eviction drop the live re-inserted entry early).
	if len(pc.order) > 2*len(pc.m)+packCacheCap {
		seen := make(map[packKey]struct{}, len(pc.m))
		live := pc.order[:0]
		for _, k := range pc.order {
			if _, dup := seen[k]; dup {
				continue
			}
			if _, ok := pc.m[k]; ok {
				seen[k] = struct{}{}
				live = append(live, k)
			}
		}
		pc.order = live
	}
	for len(pc.m) >= packCacheCap {
		k := pc.order[0]
		pc.order = pc.order[1:]
		if victim, ok := pc.m[k]; ok {
			pc.removeLocked(k, victim)
			pc.evictions++
		}
	}
	ent := &packEntry{done: make(chan struct{})}
	ent.refs.Store(2) // the cache's reference + this caller's
	pc.m[key] = ent
	pc.order = append(pc.order, key)
	pc.builds++
	pc.mu.Unlock()

	buf := bufpool.Get[E](e.rt.Bufs, length)
	data := buf.Slice()[:length]
	pool := e.rt.Bufs
	ent.put = func() { bufpool.Put(pool, buf) }
	ent.err = build(data)
	if ent.err == nil {
		ent.data = data
	}
	close(ent.done)
	if ent.err != nil {
		pc.mu.Lock()
		if cur, ok := pc.m[key]; ok && cur == ent {
			pc.removeLocked(key, ent)
		}
		pc.mu.Unlock()
		pc.release(ent)
		return nil, nil, ent.err
	}
	return ent, data, nil
}

// acquirePacked takes a reference on key's packed image — the warm fast
// path evaluates no build closure — and builds it on a miss. hit
// reports whether the image came from cache (for the per-shape prepack
// counters).
func acquirePacked[E vec.Float](e *Engine, key packKey, length int, build func([]E) error) (ent *packEntry, data []E, hit bool, err error) {
	pc := &e.packs
	pc.mu.Lock()
	if ent, ok := pc.m[key]; ok {
		ent, data, err := awaitPacked[E](pc, ent)
		return ent, data, true, err
	}
	pc.mu.Unlock()
	ent, data, err = buildPacked(e, key, length, build)
	return ent, data, false, err
}
