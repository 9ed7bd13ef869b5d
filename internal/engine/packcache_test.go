package engine

import (
	"errors"
	"sync"
	"testing"

	"iatf/internal/core"
	"iatf/internal/vec"
)

func testKey(id, gen uint64, m int) packKey {
	return packKey{id: id, gen: gen, role: roleA,
		plan: planKey{kind: OpGEMM, dt: vec.S, m: m, n: m, k: m}}
}

// The cache is bounded: inserting more distinct keys than the capacity
// evicts the oldest entries instead of growing without limit.
func TestPackCacheEvictionBound(t *testing.T) {
	e := New(core.DefaultTuning())
	const n = packCacheCap + 16
	for id := uint64(1); id <= n; id++ {
		ent, data, hit, err := acquirePacked(e, testKey(id, 1, 8), 32, func(dst []float32) error {
			for i := range dst {
				dst[i] = float32(id)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("id %d: unexpected hit on first insertion", id)
		}
		if data[0] != float32(id) {
			t.Fatalf("id %d: wrong image %v", id, data[0])
		}
		e.packs.release(ent)
	}
	s := e.packs.snapshot()
	if s.Entries > packCacheCap {
		t.Fatalf("cache grew past its bound: %d entries, cap %d", s.Entries, packCacheCap)
	}
	if want := uint64(n - packCacheCap); s.Evictions != want {
		t.Fatalf("evictions = %d, want %d", s.Evictions, want)
	}
	if s.Builds != n {
		t.Fatalf("builds = %d, want %d", s.Builds, n)
	}

	// The newest key survived and is served without rebuilding.
	_, data, hit, err := acquirePacked(e, testKey(n, 1, 8), 32, func([]float32) error {
		t.Fatal("rebuilt a cached image")
		return nil
	})
	if err != nil || !hit {
		t.Fatalf("expected warm hit, got hit=%v err=%v", hit, err)
	}
	if data[0] != float32(n) {
		t.Fatalf("warm image corrupted: %v", data[0])
	}
}

// A generation bump purges the older generation's image on the next
// build for the same (operand, plan, role).
func TestPackCacheStaleGenerationPurge(t *testing.T) {
	e := New(core.DefaultTuning())
	build := func(v float32) func([]float32) error {
		return func(dst []float32) error {
			for i := range dst {
				dst[i] = v
			}
			return nil
		}
	}
	ent, _, _, err := acquirePacked(e, testKey(7, 1, 8), 16, build(1))
	if err != nil {
		t.Fatal(err)
	}
	e.packs.release(ent)

	ent, data, hit, err := acquirePacked(e, testKey(7, 2, 8), 16, build(2))
	if err != nil {
		t.Fatal(err)
	}
	if hit || data[0] != 2 {
		t.Fatalf("generation bump served stale data: hit=%v v=%v", hit, data[0])
	}
	e.packs.release(ent)

	s := e.packs.snapshot()
	if s.Stale != 1 {
		t.Fatalf("stale purges = %d, want 1", s.Stale)
	}
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (old generation purged)", s.Entries)
	}
}

// A failed build must not leave a poisoned entry behind, and the backing
// buffer must return to the pool.
func TestPackCacheBuildError(t *testing.T) {
	e := New(core.DefaultTuning())
	boom := errors.New("boom")
	_, _, _, err := acquirePacked(e, testKey(9, 1, 8), 16, func([]float32) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := e.packs.snapshot(); s.Entries != 0 {
		t.Fatalf("failed build left %d entries", s.Entries)
	}
	// The key is retryable.
	ent, data, hit, err := acquirePacked(e, testKey(9, 1, 8), 16, func(dst []float32) error {
		dst[0] = 5
		return nil
	})
	if err != nil || hit || data[0] != 5 {
		t.Fatalf("retry after failed build: hit=%v err=%v v=%v", hit, err, data[0])
	}
	e.packs.release(ent)
}

// Concurrent cold misses on one key single-flight: exactly one build
// runs and everyone sees the same image.
func TestPackCacheSingleFlight(t *testing.T) {
	e := New(core.DefaultTuning())
	var builds sync.Map
	var wg sync.WaitGroup
	const goroutines = 16
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ent, data, _, err := acquirePacked(e, testKey(11, 1, 8), 64, func(dst []float32) error {
				builds.Store(g, true)
				for i := range dst {
					dst[i] = 42
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if data[0] != 42 {
				t.Errorf("goroutine %d: wrong image %v", g, data[0])
			}
			e.packs.release(ent)
		}(g)
	}
	wg.Wait()
	n := 0
	builds.Range(func(any, any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("%d builds ran, want 1 (single-flight)", n)
	}
	if s := e.packs.snapshot(); s.Builds != 1 || s.Hits != goroutines-1 {
		t.Fatalf("builds=%d hits=%d, want 1/%d", s.Builds, s.Hits, goroutines-1)
	}
}

// Eviction while a call still holds a reference must not recycle the
// buffer under the reader: the image stays valid until the last release.
func TestPackCacheEvictionKeepsLiveReference(t *testing.T) {
	e := New(core.DefaultTuning())
	held, data, _, err := acquirePacked(e, testKey(1, 1, 8), 16, func(dst []float32) error {
		for i := range dst {
			dst[i] = 77
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flood the cache so the held entry is evicted.
	for id := uint64(2); id <= packCacheCap+2; id++ {
		ent, _, _, err := acquirePacked(e, testKey(id, 1, 8), 16, func(dst []float32) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		e.packs.release(ent)
	}
	if s := e.packs.snapshot(); s.Evictions == 0 {
		t.Fatal("flood did not evict")
	}
	before := e.rt.Bufs.Snapshot().Puts
	for i := range data {
		if data[i] != 77 {
			t.Fatalf("evicted-but-held image corrupted at %d: %v", i, data[i])
		}
	}
	e.packs.release(held)
	if after := e.rt.Bufs.Snapshot().Puts; after <= before {
		t.Fatalf("final release did not return the buffer: puts %d -> %d", before, after)
	}
}

// Generation churn (a chained solver invalidating its operand every
// iteration) must not grow the FIFO order record without bound: stale
// purges unlink map entries but historically left their keys in order.
func TestPackCacheOrderCompaction(t *testing.T) {
	e := New(core.DefaultTuning())
	const churns = 10 * packCacheCap
	for gen := uint64(1); gen <= churns; gen++ {
		ent, _, _, err := acquirePacked(e, testKey(11, gen, 8), 16, func(dst []float32) error {
			dst[0] = float32(gen)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.packs.release(ent)
	}
	e.packs.mu.Lock()
	orderLen, entries := len(e.packs.order), len(e.packs.m)
	e.packs.mu.Unlock()
	if orderLen > 2*entries+packCacheCap {
		t.Fatalf("order grew unboundedly under churn: %d keys for %d entries", orderLen, entries)
	}
	if entries != 1 {
		t.Fatalf("entries = %d, want 1 (one live generation)", entries)
	}
}

// A stale-generation purge must not free a packed image a running call
// still holds: the entry's refcount keeps the buffer alive until the
// last holder releases it.
func TestPackCacheStalePurgeKeepsHeldReference(t *testing.T) {
	e := New(core.DefaultTuning())
	ent, data, _, err := acquirePacked(e, testKey(13, 1, 8), 16, func(dst []float32) error {
		for i := range dst {
			dst[i] = 42
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generation bump: the purge drops the cache's reference while we
	// still hold ours (a chain mid-execution against the image).
	ent2, _, _, err := acquirePacked(e, testKey(13, 2, 8), 16, func(dst []float32) error {
		for i := range dst {
			dst[i] = 43
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.packs.snapshot(); s.Stale != 1 {
		t.Fatalf("stale purges = %d, want 1", s.Stale)
	}
	for i := range data {
		if data[i] != 42 {
			t.Fatalf("held image freed or overwritten at %d: %v", i, data[i])
		}
	}
	if ent.refs.Load() != 1 {
		t.Fatalf("held entry refs = %d, want 1 (caller only)", ent.refs.Load())
	}
	e.packs.release(ent)
	e.packs.release(ent2)
	if ent.refs.Load() != 0 {
		t.Fatalf("released entry refs = %d, want 0", ent.refs.Load())
	}
}
