package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"iatf/internal/core"
	"iatf/internal/kopt"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/store"
	"iatf/internal/vec"
)

// plansOf snapshots an engine's whole plan cache.
func plansOf(e *Engine) map[planKey]any {
	out := make(map[planKey]any)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			out[k] = v
		}
		sh.mu.Unlock()
	}
	return out
}

// solo builds a one-shard set and returns it with its engine: store
// loads and saves are set operations.
func solo(tun core.Tuning) (*Set, *Engine) {
	s := NewSet(tun, 1, QueueConfig{})
	return s, s.engines[0]
}

// coldKernelMemo swaps in an empty process kernel memo for the test's
// duration, simulating a process that never generated any kernels.
func coldKernelMemo(t *testing.T) {
	t.Helper()
	old := core.SwapKernelMemo(kopt.NewMemo())
	t.Cleanup(func() { core.SwapKernelMemo(old) })
}

// TestStoreRoundTripBitExact is the core persistence guarantee: plans
// hydrated from disk by a cold process are bit-identical to the plans
// the original process tuned live.
func TestStoreRoundTripBitExact(t *testing.T) {
	tun := core.DefaultTuning()
	se1, e1 := solo(tun)
	path := store.PathFor(t.TempDir(), e1.Fingerprint())

	// Tune live: one real dispatch plus a Warm sweep over every op family.
	rng := rand.New(rand.NewSource(7))
	a := randCompact(rng, 64, 8, 6)
	b := randCompact(rng, 64, 6, 5)
	c := randCompact(rng, 64, 8, 5)
	if err := e1.Run(context.Background(), one(OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 0, Workers: 1}, op32(a), op32(b), op32(c)), Call{}); err != nil {
		t.Fatal(err)
	}
	warm := []store.PlanDesc{
		{Kind: int(OpGEMM), DType: int(vec.D), M: 8, N: 8, K: 8, TransA: 1, CountBucket: 16},
		{Kind: int(OpTRSM), DType: int(vec.S), M: 8, N: 4, CountBucket: 1},
		{Kind: int(OpTRMM), DType: int(vec.D), M: 6, N: 6, Side: 1, Uplo: 1, CountBucket: 4},
		{Kind: int(OpSYRK), DType: int(vec.S), M: 8, K: 4, TransA: 1, CountBucket: 2},
		{Kind: int(OpCholesky), DType: int(vec.D), M: 12, CountBucket: 1},
	}
	for _, d := range warm {
		if err := e1.Warm(d); err != nil {
			t.Fatalf("warm %+v: %v", d, err)
		}
	}
	se1.SetStorePath(path)
	if err := se1.SaveStore(); err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats().Store; st.Saves != 1 || st.Path != path {
		t.Fatalf("save counters: %+v", st)
	}

	// Cold process: fresh kernel memo, fresh engine, same tuning.
	coldKernelMemo(t)
	se2, e2 := solo(tun)
	se2.SetStorePath(path)
	if err := se2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats()
	if s2.Store.Loads != 1 {
		t.Fatalf("load counters: %+v", s2.Store)
	}
	// Plans are geometry: hydrating them looks up no kernel.
	if hits, misses, _ := core.KernelMemoStats(); hits != 0 || misses != 0 {
		t.Fatalf("hydration read the kernel memo: %d hits, %d misses", hits, misses)
	}
	want := plansOf(e1)
	got := plansOf(e2)
	if len(got) != len(want) || s2.PlanHydrated != uint64(len(want)) {
		t.Fatalf("hydrated %d plans (counter %d), want %d", len(got), s2.PlanHydrated, len(want))
	}
	for k, v := range want {
		if !reflect.DeepEqual(got[k], v) {
			t.Errorf("plan %+v differs after disk round trip:\ngot  %+v\nwant %+v", k, got[k], v)
		}
	}
}

// TestStoreHydrationIsNotAMiss pins satellite semantics: the warm
// process's first call on a stored shape is a hit (never a miss), the
// CMAR ceiling still lands in the per-shape series, and the numeric
// result matches the tuning process's.
func TestStoreHydrationIsNotAMiss(t *testing.T) {
	tun := core.DefaultTuning()
	se1, e1 := solo(tun)
	path := store.PathFor(t.TempDir(), e1.Fingerprint())

	run := func(e *Engine) *layout.Compact[float32] {
		rng := rand.New(rand.NewSource(11)) // identical data both processes
		a := randCompact(rng, 32, 6, 6)
		b := randCompact(rng, 32, 6, 6)
		c := randCompact(rng, 32, 6, 6)
		if err := e.Run(context.Background(), one(OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 0, Workers: 1}, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	want := run(e1)
	se1.SetStorePath(path)
	if err := se1.SaveStore(); err != nil {
		t.Fatal(err)
	}

	coldKernelMemo(t)
	se2, e2 := solo(tun)
	se2.SetStorePath(path)
	if err := se2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	got := run(e2)

	s := e2.Stats()
	if s.PlanMisses != 0 {
		t.Fatalf("hydrated first call counted as a miss: %+v", s)
	}
	if s.PlanHits != 1 || s.PlanHydrated != 1 {
		t.Fatalf("hydrated first call: hits %d hydrated %d", s.PlanHits, s.PlanHydrated)
	}
	if len(s.Shapes) != 1 {
		t.Fatalf("shapes = %d, want 1", len(s.Shapes))
	}
	sh := s.Shapes[0]
	if sh.PlanHydrated != 1 || sh.PlanMisses != 0 {
		t.Fatalf("shape outcome: %+v", sh)
	}
	if sh.CeilingGFLOPS <= 0 {
		t.Fatalf("hydrated first call must still record the CMAR ceiling, got %g", sh.CeilingGFLOPS)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatal("warm-process result differs from tuning-process result")
	}

	// Second call: plain hit, hydrated marker consumed.
	run(e2)
	s = e2.Stats()
	if s.PlanHits != 2 || s.PlanMisses != 0 || s.Shapes[0].PlanHydrated != 1 {
		t.Fatalf("second warm call: %+v", s)
	}
}

// TestStoreFingerprintMismatchFallsBack: a store for another tuning is
// ignored without error and the engine tunes live.
func TestStoreFingerprintMismatchFallsBack(t *testing.T) {
	tun := core.DefaultTuning()
	se, e := solo(tun)
	path := store.PathFor(t.TempDir(), e.Fingerprint())
	other := store.New("some-other-machine-t0123", "test")
	other.Plans = []store.PlanDesc{{Kind: int(OpGEMM), DType: int(vec.S), M: 4, N: 4, K: 4, CountBucket: 1}}
	if err := other.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	se.SetStorePath(path)
	if err := se.LoadStore(); err != nil {
		t.Fatalf("mismatch must not be an error, got %v", err)
	}
	s := e.Stats()
	if s.Store.LoadMismatches != 1 || s.Store.Loads != 0 || s.PlanHydrated != 0 {
		t.Fatalf("mismatch accounting: %+v", s.Store)
	}
	// Live tuning still works.
	rng := rand.New(rand.NewSource(3))
	a := randCompact(rng, 8, 4, 4)
	b := randCompact(rng, 8, 4, 4)
	c := randCompact(rng, 8, 4, 4)
	if err := e.Run(context.Background(), one(OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 0, Workers: 1}, op32(a), op32(b), op32(c)), Call{}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.PlanMisses != 1 {
		t.Fatalf("live fallback: %+v", s)
	}
}

// TestStoreCorruptFallsBack: truncated/garbage stores are counted and
// ignored; absent stores are silent.
func TestStoreCorruptFallsBack(t *testing.T) {
	tun := core.DefaultTuning()
	se, e := solo(tun)
	path := store.PathFor(t.TempDir(), e.Fingerprint())
	se.SetStorePath(path)

	// Absent: no error, no counters.
	if err := se.LoadStore(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats().Store; s.Loads != 0 || s.LoadErrors != 0 {
		t.Fatalf("absent store counted: %+v", s)
	}

	if err := os.WriteFile(path, []byte(`{"version":1,"fing`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := se.LoadStore(); err != nil {
		t.Fatalf("corrupt must not be an error, got %v", err)
	}
	if s := e.Stats().Store; s.LoadErrors != 1 || s.Loads != 0 {
		t.Fatalf("corrupt accounting: %+v", s)
	}

	// A rebuild (SaveStore) repairs the file in place.
	if err := e.Warm(store.PlanDesc{Kind: int(OpGEMM), DType: int(vec.S), M: 4, N: 4, K: 4, CountBucket: 1}); err != nil {
		t.Fatal(err)
	}
	if err := se.SaveStore(); err != nil {
		t.Fatal(err)
	}
	if err := se.LoadStore(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats().Store; s.Loads != 1 {
		t.Fatalf("rebuild accounting: %+v", s)
	}
}

// TestSetStoreRoutesHydrationToHomeShard is the routing-parity check:
// hydrating a set must land every plan on exactly the shard live traffic
// routes to, so warm-start calls through the set are hits, not misses.
func TestSetStoreRoutesHydrationToHomeShard(t *testing.T) {
	tun := core.DefaultTuning()
	se1, e1 := solo(tun)
	path := store.PathFor(t.TempDir(), e1.Fingerprint())

	// A spread of identities across op kinds, transposes, sides and
	// dtypes so the route hash exercises every descriptor field.
	type call struct {
		op       OpDesc
		operands func(rng *rand.Rand) []Operand
	}
	calls := []call{
		{OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 0, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 8, 6)), op32(randCompact(rng, 16, 6, 5)), op32(randCompact(rng, 16, 8, 5))}
		}},
		{OpDesc{Kind: OpGEMM, TransA: matrix.Transpose, Alpha: 1, Beta: 0, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 6, 8)), op32(randCompact(rng, 16, 6, 5)), op32(randCompact(rng, 16, 8, 5))}
		}},
		{OpDesc{Kind: OpGEMM, TransB: matrix.Transpose, Alpha: 1, Beta: 0, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 4, 7)), op32(randCompact(rng, 16, 3, 7)), op32(randCompact(rng, 16, 4, 3))}
		}},
		{OpDesc{Kind: OpTRSM, Side: matrix.Left, Uplo: matrix.Lower, Alpha: 1, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(triCompact(rng, 16, 6)), op32(randCompact(rng, 16, 6, 4))}
		}},
		{OpDesc{Kind: OpTRSM, Side: matrix.Right, Uplo: matrix.Upper, Alpha: 1, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(triCompact(rng, 16, 5)), op32(randCompact(rng, 16, 4, 5))}
		}},
		{OpDesc{Kind: OpTRMM, Side: matrix.Left, Uplo: matrix.Lower, Alpha: 1, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(triCompact(rng, 16, 4)), op32(randCompact(rng, 16, 4, 6))}
		}},
		{OpDesc{Kind: OpSYRK, Uplo: matrix.Lower, Alpha: 1, Beta: 0, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 6, 4)), op32(randCompact(rng, 16, 6, 6))}
		}},
		{OpDesc{Kind: OpSYRK, Uplo: matrix.Upper, TransA: matrix.Transpose, Alpha: 1, Beta: 0, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 4, 6)), op32(randCompact(rng, 16, 6, 6))}
		}},
		// Factorizations (single-operand keys), the pivoted one filling
		// its pivot record.
		{OpDesc{Kind: OpLU, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 5, 5))}
		}},
		{OpDesc{Kind: OpLUPiv, Workers: 1}, func(rng *rand.Rand) []Operand {
			return []Operand{op32(randCompact(rng, 16, 7, 7))}
		}},
	}
	stages := func(cl call, rng *rand.Rand) []ChainStage {
		st := one(cl.op, cl.operands(rng)...)
		if cl.op.Kind == OpLUPiv {
			st[0].Piv = new(core.Pivots)
		}
		return st
	}
	rng := rand.New(rand.NewSource(21))
	for _, cl := range calls {
		if err := e1.Run(context.Background(), stages(cl, rng), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	total := len(calls)

	se1.SetStorePath(path)
	if err := se1.SaveStore(); err != nil {
		t.Fatal(err)
	}

	coldKernelMemo(t)
	set := NewSet(tun, 3, QueueConfig{})
	set.SetStorePath(path)
	if err := set.LoadStore(); err != nil {
		t.Fatal(err)
	}
	agg := set.Stats().Aggregate
	if agg.PlanHydrated != uint64(total) {
		t.Fatalf("hydrated %d plans across shards, want %d", agg.PlanHydrated, total)
	}

	// Replay the identical traffic through the router: every call must
	// find its plan on its home shard — zero misses anywhere.
	rng = rand.New(rand.NewSource(21))
	for _, cl := range calls {
		if err := set.Run(context.Background(), stages(cl, rng), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	agg = set.Stats().Aggregate
	if agg.PlanMisses != 0 {
		t.Fatalf("routed warm-start missed: home-shard hydration diverged from live routing (%+v)", agg)
	}
	if agg.PlanHits != uint64(total) {
		t.Fatalf("hits = %d, want %d", agg.PlanHits, total)
	}
}

// TestSetStoreWarmStartIgnoresUnreadModes: a call homes on its plan
// key, so a mode field its op never reads — a TRSM's TransB, a GEMM's
// Side — cannot send it away from the shard its stored plan was
// hydrated on. Every replayed call of a warm-started two-shard set hits.
func TestSetStoreWarmStartIgnoresUnreadModes(t *testing.T) {
	tun := core.DefaultTuning()
	se1, e1 := solo(tun)
	path := store.PathFor(t.TempDir(), e1.Fingerprint())
	trsm := OpDesc{Kind: OpTRSM, Uplo: matrix.Lower, TransB: matrix.Transpose, Alpha: 1, Workers: 1}
	gemm := OpDesc{Kind: OpGEMM, Side: matrix.Right, Alpha: 1, Workers: 1}
	replay := func(run func([]ChainStage) error) {
		t.Helper()
		rng := rand.New(rand.NewSource(22))
		for n := 2; n <= 24; n++ {
			a, b := triCompact(rng, 4, n), randCompact(rng, 4, n, 3)
			if err := run(one(trsm, op32(a), op32(b))); err != nil {
				t.Fatal(err)
			}
			ga, gb, gc := gemmReqOperands(rng, 4, n, n, n)
			if err := run(one(gemm, op32(ga), op32(gb), op32(gc))); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay(func(st []ChainStage) error { return e1.Run(context.Background(), st, Call{}) })
	se1.SetStorePath(path)
	if err := se1.SaveStore(); err != nil {
		t.Fatal(err)
	}

	set := NewSet(tun, 2, QueueConfig{})
	set.SetStorePath(path)
	if err := set.LoadStore(); err != nil {
		t.Fatal(err)
	}
	replay(func(st []ChainStage) error { return set.Run(context.Background(), st, Call{}) })
	agg := set.Stats().Aggregate
	if agg.PlanMisses != 0 || agg.PlanHits != 2*23 {
		t.Fatalf("warm start: %d plan misses and %d hits for 46 stored calls, want 0 and 46", agg.PlanMisses, agg.PlanHits)
	}
}

// TestConcurrentTuners runs concurrent pre-baking in-process under the
// race detector: several tuners warm disjoint shape sets and
// load-merge-write one store path; a warm engine must then load the file
// cleanly and see at least the last writer's shapes.
func TestConcurrentTuners(t *testing.T) {
	tun := core.DefaultTuning()
	fp := New(tun).Fingerprint()
	path := store.PathFor(t.TempDir(), fp)
	const tuners = 4
	var wg sync.WaitGroup
	for w := 0; w < tuners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := New(tun)
			for i := 0; i < 2; i++ {
				d := store.PlanDesc{Kind: int(OpGEMM), DType: int(vec.S),
					M: 3 + w, N: 3 + i, K: 4, CountBucket: 1}
				if err := e.Warm(d); err != nil {
					t.Errorf("tuner %d: %v", w, err)
					return
				}
			}
			f := e.Export("test-tuner")
			if prev, err := store.Load(path, fp); err == nil {
				f.Merge(prev)
			}
			if err := f.WriteAtomic(path); err != nil {
				t.Errorf("tuner %d write: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	coldKernelMemo(t)
	se, e := solo(tun)
	se.SetStorePath(path)
	if err := se.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Store.Loads != 1 || s.Store.LoadErrors != 0 {
		t.Fatalf("post-race load: %+v", s.Store)
	}
	// Atomicity guarantees at least one tuner's complete set (2 plans).
	if s.PlanHydrated < 2 {
		t.Fatalf("hydrated %d plans, want >= 2", s.PlanHydrated)
	}
}

// TestWarmRejectsNonsense: unknown kinds and undersized dims surface as
// errors from Warm (the pre-baking reporting path) instead of poisoning
// the store.
func TestWarmRejectsNonsense(t *testing.T) {
	e := New(core.DefaultTuning())
	if err := e.Warm(store.PlanDesc{Kind: 99, DType: int(vec.S), M: 4, CountBucket: 1}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := e.Warm(store.PlanDesc{Kind: int(OpGEMM), DType: int(vec.S), M: 0, N: 4, K: 4, CountBucket: 1}); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

// TestStoreHostileDescriptorsFailSoft: a store file is user-writable
// and its fingerprint is a name, not a MAC. A GEMM descriptor of
// 1048576² (which once ran Hydrate out of memory) and one of dtype 99
// install no plan and are counted as rejected, on a solo engine and on a
// set, while valid neighbours still hydrate: a 4³ GEMM and a 200³ one,
// which a live call plans too.
func TestStoreHostileDescriptorsFailSoft(t *testing.T) {
	tun := core.DefaultTuning()
	fp := New(tun).Fingerprint()
	body := fmt.Sprintf(`{"version":%d,"fingerprint":%q,"plans":[`+
		`{"kind":0,"m":1048576,"n":1048576,"k":4},`+
		`{"kind":0,"dtype":99,"m":4,"n":4,"k":4,"count_bucket":1},`+
		`{"kind":0,"dtype":1,"m":4,"n":4,"k":4,"count_bucket":1},`+
		`{"kind":0,"dtype":0,"m":200,"n":200,"k":200,"count_bucket":2}]}`, store.FormatVersion, fp)
	path := store.PathFor(t.TempDir(), fp)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := planKey{kind: OpGEMM, dt: vec.D, m: 4, n: 4, k: 4, countBucket: 1}
	large := planKey{kind: OpGEMM, dt: vec.S, m: 200, n: 200, k: 200, countBucket: 2}

	se, e := solo(tun)
	se.SetStorePath(path)
	if err := se.LoadStore(); err != nil {
		t.Fatal(err)
	}
	if got := plansOf(e); len(got) != 2 || got[valid] == nil || got[large] == nil {
		t.Fatalf("engine installed %d plans, want only the two valid ones", len(got))
	}
	if s := e.Stats(); s.Store.PlansRejected != 2 || s.PlanHydrated != 2 {
		t.Fatalf("engine: rejected %d, hydrated %d; want 2, 2", s.Store.PlansRejected, s.PlanHydrated)
	}

	set := NewSet(tun, 2, QueueConfig{})
	set.SetStorePath(path)
	if err := set.LoadStore(); err != nil {
		t.Fatal(err)
	}
	if s := set.Stats().Aggregate; s.Store.PlansRejected != 2 || s.PlanHydrated != 2 || s.PlanEntries != 2 {
		t.Fatalf("set: rejected %d, hydrated %d, entries %d; want 2, 2, 2", s.Store.PlansRejected, s.PlanHydrated, s.PlanEntries)
	}
}

// TestWarmedKeysAreLiveKeys: Warm installs a stored descriptor under the
// key its live call looks up, whatever unread fields the descriptor
// sets — a factorization at count bucket 64 (its key ignores the
// count), a TRSM with TransB or K, a GEMM with Side and Diag, a SYRK
// with N and Side. The live call hits the warmed plan: no miss, one
// entry.
func TestWarmedKeysAreLiveKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	sq := func(n int) Operand { return op32(triCompact(rng, 64, n)) }
	cases := []struct {
		name string
		desc store.PlanDesc
		live func() []ChainStage
	}{
		{"lu", store.PlanDesc{Kind: int(OpLU), M: 4, CountBucket: 64},
			func() []ChainStage { return one(OpDesc{Kind: OpLU, Workers: 1}, sq(4)) }},
		{"cholesky", store.PlanDesc{Kind: int(OpCholesky), M: 4, CountBucket: 64},
			func() []ChainStage { return one(OpDesc{Kind: OpCholesky, Workers: 1}, sq(4)) }},
		{"lupiv", store.PlanDesc{Kind: int(OpLUPiv), M: 4, CountBucket: 64},
			func() []ChainStage {
				st := one(OpDesc{Kind: OpLUPiv, Workers: 1}, sq(4))
				st[0].Piv = new(core.Pivots)
				return st
			}},
		{"trsm TransB", store.PlanDesc{Kind: int(OpTRSM), M: 4, N: 3, TransB: 1, CountBucket: 8},
			func() []ChainStage {
				return one(OpDesc{Kind: OpTRSM, TransB: matrix.Transpose, Alpha: 1, Workers: 1},
					op32(triCompact(rng, 8, 4)), op32(randCompact(rng, 8, 4, 3)))
			}},
		{"trsm K", store.PlanDesc{Kind: int(OpTRSM), M: 4, N: 3, K: 5, CountBucket: 8},
			func() []ChainStage {
				return one(OpDesc{Kind: OpTRSM, Alpha: 1, Workers: 1}, op32(triCompact(rng, 8, 4)), op32(randCompact(rng, 8, 4, 3)))
			}},
		{"gemm Side Diag", store.PlanDesc{Kind: int(OpGEMM), M: 4, N: 5, K: 3, Side: 1, Diag: 1, CountBucket: 8},
			func() []ChainStage {
				a, b, c := gemmReqOperands(rng, 8, 4, 5, 3)
				return one(OpDesc{Kind: OpGEMM, Side: matrix.Right, Diag: matrix.Unit, Alpha: 1, Workers: 1}, op32(a), op32(b), op32(c))
			}},
		{"syrk N Side", store.PlanDesc{Kind: int(OpSYRK), M: 4, N: 3, K: 3, Side: 1, CountBucket: 8},
			func() []ChainStage {
				return one(OpDesc{Kind: OpSYRK, Alpha: 1, Workers: 1}, op32(randCompact(rng, 8, 4, 3)), op32(randCompact(rng, 8, 4, 4)))
			}},
	}
	for _, c := range cases {
		e := New(core.DefaultTuning())
		if err := e.Warm(c.desc); err != nil {
			t.Fatalf("%s: warm: %v", c.name, err)
		}
		warmed := e.Stats()
		if err := e.Run(context.Background(), c.live(), Call{}); err != nil {
			t.Fatalf("%s: live call: %v", c.name, err)
		}
		s := e.Stats()
		if misses, hits := s.PlanMisses-warmed.PlanMisses, s.PlanHits-warmed.PlanHits; misses != 0 || hits != 1 || s.PlanEntries != 1 {
			t.Errorf("%s: the live call missed %d and hit %d times, %d entries; want 0, 1, 1", c.name, misses, hits, s.PlanEntries)
		}
	}
}

// keyOfDesc accepts only what a live call can key.
func TestKeyOfDescRejectsWhatNoLiveCallKeys(t *testing.T) {
	ok := store.PlanDesc{Kind: int(OpTRSM), DType: int(vec.Z), M: 16, N: 3, Side: 1, Uplo: 1, Diag: 1, TransA: 1, CountBucket: 8}
	if _, err := keyOfDesc(ok); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	for name, mut := range map[string]func(*store.PlanDesc){
		"kind":         func(d *store.PlanDesc) { d.Kind = int(OpLUPiv) + 1 },
		"dtype":        func(d *store.PlanDesc) { d.DType = 99 },
		"negative dt":  func(d *store.PlanDesc) { d.DType = -1 },
		"trans":        func(d *store.PlanDesc) { d.TransB = 2 },
		"side":         func(d *store.PlanDesc) { d.Side = -1 },
		"uplo":         func(d *store.PlanDesc) { d.Uplo = 7 },
		"diag":         func(d *store.PlanDesc) { d.Diag = 2 },
		"negative dim": func(d *store.PlanDesc) { d.K = -4 },
		"count bucket": func(d *store.PlanDesc) { d.CountBucket = 6 },
	} {
		d := ok
		mut(&d)
		if _, err := keyOfDesc(d); err == nil {
			t.Errorf("%s: %+v accepted", name, d)
		}
	}
}
