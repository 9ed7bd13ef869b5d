package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

func randCompact(rng *rand.Rand, count, rows, cols int) *layout.Compact[float32] {
	b := matrix.NewBatch[float32](count, rows, cols)
	matrix.Fill(rng, b.Data)
	return layout.FromBatch(vec.S, b)
}

func op32(c *layout.Compact[float32]) Operand { return Operand{DT: vec.S, F32: c} }

// one builds the one-stage list of a single op, the form Run and Submit
// take.
func one(op OpDesc, ops ...Operand) []ChainStage {
	st := ChainStage{Op: op, NOps: len(ops)}
	copy(st.Ops[:], ops)
	return []ChainStage{st}
}

func TestCountBucket(t *testing.T) {
	cases := [][2]int{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048}}
	for _, c := range cases {
		if got := countBucket(c[0]); got != c[1] {
			t.Errorf("countBucket(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(1))
	a := randCompact(rng, 100, 4, 6)
	b := randCompact(rng, 100, 6, 5)
	c := randCompact(rng, 100, 4, 5)
	op := OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 0, Workers: 1}

	if err := e.Run(context.Background(), one(op, op32(a), op32(b), op32(c)), Call{}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.PlanMisses != 1 || s.PlanHits != 0 || s.PlanEntries != 1 {
		t.Fatalf("after first call: %+v", s)
	}
	for i := 0; i < 5; i++ {
		if err := e.Run(context.Background(), one(op, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	s = e.Stats()
	if s.PlanMisses != 1 || s.PlanHits != 5 {
		t.Fatalf("warm calls must hit the cache: %+v", s)
	}
}

// TestScalarsAndCountShareAPlan checks that alpha/beta and nearby batch
// counts are excluded from the cache key but still honored by execution.
func TestScalarsAndCountShareAPlan(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(2))
	run := func(count int, alpha, beta complex128) *layout.Compact[float32] {
		rng := rand.New(rand.NewSource(3)) // same operand data every time
		a := randCompact(rng, count, 4, 4)
		b := randCompact(rng, count, 4, 4)
		c := randCompact(rng, count, 4, 4)
		op := OpDesc{Kind: OpGEMM, Alpha: alpha, Beta: beta, Workers: 1}
		if err := e.Run(context.Background(), one(op, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	_ = rng
	c1 := run(100, 1, 0)
	if got := e.Stats(); got.PlanMisses != 1 {
		t.Fatalf("first call: %+v", got)
	}
	// Different scalars, counts within the same power-of-two bucket and at
	// its edges: all hits.
	run(100, 2.5, 1)
	run(65, 1, 0)
	run(128, 1, 0)
	if got := e.Stats(); got.PlanMisses != 1 {
		t.Fatalf("scalar/count variants must share the plan: %+v", got)
	}
	run(129, 1, 0) // next bucket: one more miss
	if got := e.Stats(); got.PlanMisses != 2 {
		t.Fatalf("bucket boundary: %+v", got)
	}

	// Scalars must still take effect: alpha=2 doubles the alpha=1 result.
	c2 := run(100, 2, 0)
	for i := range c1.Data {
		if c2.Data[i] != 2*c1.Data[i] {
			t.Fatalf("alpha not honored at %d: %g vs %g", i, c2.Data[i], c1.Data[i])
		}
	}
}

func TestPlanCacheBounded(t *testing.T) {
	e := New(core.DefaultTuning())
	// Fake builds: exercise the bound without generating thousands of real
	// plans.
	total := planShards*planShardCap + 500
	for i := 0; i < total; i++ {
		key := planKey{kind: OpGEMM, m: i + 1, n: 1, k: 1, countBucket: 1}
		if _, _, err := e.plan(key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.PlanEntries > planShards*planShardCap {
		t.Errorf("cache unbounded: %d entries", s.PlanEntries)
	}
	if s.PlanEvictions == 0 {
		t.Error("no evictions recorded past the bound")
	}
	if s.PlanMisses != uint64(total) {
		t.Errorf("misses %d, want %d", s.PlanMisses, total)
	}
}

// checkTypedErr asserts an engine validation error wraps the expected
// taxonomy sentinel and names the op and operand.
func checkTypedErr(t *testing.T, err error, sentinel error, wantSubstrs ...string) {
	t.Helper()
	if err == nil {
		t.Error("expected a validation error, got nil")
		return
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error %q does not match sentinel %q", err, sentinel)
	}
	for _, w := range wantSubstrs {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q missing %q", err, w)
		}
	}
}

func TestOperandValidation(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(4))
	a := randCompact(rng, 10, 4, 4)
	op := OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1, Workers: 1}

	checkTypedErr(t, e.Run(context.Background(), one(op, op32(a), op32(a), Operand{}), Call{}), ErrOperand, "GEMM", "C", "nil or empty")
	checkTypedErr(t, e.Run(context.Background(), one(op, op32(a), op32(a)), Call{}), ErrOperand, "GEMM", "takes 3 operands")

	bad := randCompact(rng, 10, 3, 5)
	checkTypedErr(t, e.Run(context.Background(), one(op, op32(a), op32(bad), op32(a)), Call{}), ErrShape, "GEMM", "B", "shape mismatch")

	b64 := matrix.NewBatch[float64](10, 4, 4)
	o64 := Operand{DT: vec.D, F64: layout.FromBatch(vec.D, b64)}
	checkTypedErr(t, e.Run(context.Background(), one(op, op32(a), o64, op32(a)), Call{}), ErrDType, "GEMM", "B", "mismatched element type")

	tri := OpDesc{Kind: OpTRSM, Alpha: 1, Workers: 1}
	checkTypedErr(t, e.Run(context.Background(), one(tri, op32(bad), op32(a)), Call{}), ErrShape, "TRSM", "A", "must be square")
}

// TestTriAndSYRKValidation covers the checks that used to tunnel into
// internal/core and die there without op context: batch-count agreement
// for the two-operand ops, and A's dimension against the side.
func TestTriAndSYRKValidation(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(6))

	a4 := randCompact(rng, 10, 4, 4)   // square 4x4, count 10
	b45 := randCompact(rng, 10, 4, 5)  // B 4x5, count 10
	b45c := randCompact(rng, 12, 4, 5) // B 4x5, count 12

	for _, kind := range []OpKind{OpTRSM, OpTRMM} {
		op := OpDesc{Kind: kind, Side: matrix.Left, Uplo: matrix.Lower, Alpha: 1, Workers: 1}
		// Count mismatch must be caught at the boundary with op context.
		checkTypedErr(t, e.Run(context.Background(), one(op, op32(a4), op32(b45c)), Call{}), ErrCount, kind.String(), "A has 10", "B has 12")
		// Left side with a 4x5 B needs a 4x4 A; a 5x5 A must be named.
		a5 := randCompact(rng, 10, 5, 5)
		checkTypedErr(t, e.Run(context.Background(), one(op, op32(a5), op32(b45)), Call{}), ErrShape, kind.String(), "A", "side L")
		// Right side with a 4x5 B needs a 5x5 A.
		opR := OpDesc{Kind: kind, Side: matrix.Right, Uplo: matrix.Lower, Alpha: 1, Workers: 1}
		checkTypedErr(t, e.Run(context.Background(), one(opR, op32(a4), op32(b45)), Call{}), ErrShape, kind.String(), "A", "side R")
		// Valid right-side call still passes.
		if err := e.Run(context.Background(), one(opR, op32(a5), op32(b45)), Call{}); err != nil {
			t.Errorf("%v valid Right call rejected: %v", kind, err)
		}
	}

	// SYRK: count agreement and op(A) rows vs C's dimension.
	c4 := randCompact(rng, 10, 4, 4)
	aT := randCompact(rng, 10, 4, 3) // op(A) 4x3: valid for NoTrans
	syrk := OpDesc{Kind: OpSYRK, Uplo: matrix.Lower, Alpha: 1, Beta: 1, Workers: 1}
	if err := e.Run(context.Background(), one(syrk, op32(aT), op32(c4)), Call{}); err != nil {
		t.Errorf("valid SYRK rejected: %v", err)
	}
	aBadC := randCompact(rng, 12, 4, 3)
	checkTypedErr(t, e.Run(context.Background(), one(syrk, op32(aBadC), op32(c4)), Call{}), ErrCount, "SYRK", "A has 12", "C has 10")
	aBadR := randCompact(rng, 10, 5, 3)
	checkTypedErr(t, e.Run(context.Background(), one(syrk, op32(aBadR), op32(c4)), Call{}), ErrShape, "SYRK", "A")
	cRect := randCompact(rng, 10, 4, 5)
	checkTypedErr(t, e.Run(context.Background(), one(syrk, op32(aT), op32(cRect)), Call{}), ErrShape, "SYRK", "C", "square")
}

// TestPlanSingleFlight: concurrent cold-start misses on one key build the
// plan exactly once; the losers wait and share the winner's plan, counted
// as PlanShared, not as extra misses.
func TestPlanSingleFlight(t *testing.T) {
	e := New(core.DefaultTuning())
	key := planKey{kind: OpGEMM, m: 7, n: 7, k: 7, countBucket: 8}
	var builds atomic.Int32
	const callers = 16
	start := make(chan struct{})
	vals := make(chan any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := e.plan(key, func() (any, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals <- v
		}()
	}
	close(start)
	wg.Wait()
	close(vals)
	if b := builds.Load(); b != 1 {
		t.Errorf("build ran %d times, want 1", b)
	}
	var first any
	for v := range vals {
		if first == nil {
			first = v
		} else if v != first {
			t.Error("callers received different plans")
		}
	}
	s := e.Stats()
	if s.PlanMisses != 1 {
		t.Errorf("misses %d, want exactly 1", s.PlanMisses)
	}
	if s.PlanHits+s.PlanShared != callers-1 {
		t.Errorf("hits %d + shared %d, want %d", s.PlanHits, s.PlanShared, callers-1)
	}

	// A failed build is not cached and does not poison the key.
	bad := planKey{kind: OpGEMM, m: 9, n: 9, k: 9, countBucket: 8}
	if _, _, err := e.plan(bad, func() (any, error) { return nil, errors.New("boom") }); err == nil {
		t.Error("build error not propagated")
	}
	if v, _, err := e.plan(bad, func() (any, error) { return 42, nil }); err != nil || v != 42 {
		t.Errorf("key poisoned after failed build: %v %v", v, err)
	}
}

// TestEngineMatchesCore pins the engine dispatch path to the direct core
// path bit for bit, across ops and worker counts.
func TestEngineMatchesCore(t *testing.T) {
	e := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(5))
	const count, m, n, k = 70, 6, 5, 7
	a := randCompact(rng, count, m, k)
	b := randCompact(rng, count, k, n)
	c0 := randCompact(rng, count, m, n)

	// Direct core path.
	p := core.GEMMProblem{DT: vec.S, M: m, N: n, K: k, Alpha: complex(1.5, 0), Beta: complex(0.5, 0), Count: count}
	pl, err := core.NewGEMMPlan(p, core.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	cRef := c0.Clone()
	if err := core.ExecGEMMNativePrepacked(pl, a, b, cRef, nil, nil, 1); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 0, 3} {
		cc := c0.Clone()
		op := OpDesc{Kind: OpGEMM, Alpha: complex(1.5, 0), Beta: complex(0.5, 0), Workers: workers}
		if err := e.Run(context.Background(), one(op, op32(a), op32(b), op32(cc)), Call{}); err != nil {
			t.Fatal(err)
		}
		for i := range cRef.Data {
			if cc.Data[i] != cRef.Data[i] {
				t.Fatalf("workers=%d: engine diverges from core at %d", workers, i)
			}
		}
	}
}

func TestOpKindString(t *testing.T) {
	for _, k := range []OpKind{OpGEMM, OpTRSM, OpTRMM, OpSYRK} {
		if s := k.String(); strings.HasPrefix(s, "OpKind(") {
			t.Errorf("missing name for %d", int(k))
		}
	}
	if s := OpKind(99).String(); s != fmt.Sprintf("OpKind(%d)", 99) {
		t.Errorf("fallback: %s", s)
	}
}
