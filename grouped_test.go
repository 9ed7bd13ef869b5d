package iatf

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"iatf/internal/matrix"
)

// A grouped GEMM over heterogeneous shapes must match per-group oracles.
func TestGEMMGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type shape struct{ count, n int }
	shapes := []shape{{10, 3}, {6, 8}, {4, 15}}
	var groups []Request[float64]
	var wants []*Batch[float64]
	for _, s := range shapes {
		a := randBatch[float64](rng, s.count, s.n, s.n)
		b := randBatch[float64](rng, s.count, s.n, s.n)
		c := randBatch[float64](rng, s.count, s.n, s.n)
		want := &Batch[float64]{inner: c.inner.Clone()}
		matrix.RefGEMMBatch(NoTrans, NoTrans, 2.0, a.inner, b.inner, 1.0, want.inner)
		wants = append(wants, want)
		groups = append(groups, Request[float64]{
			Op: OpGEMM, TransA: NoTrans, TransB: NoTrans, Alpha: 2, Beta: 1,
			A: Pack(a), B: Pack(b), C: Pack(c),
		})
	}
	if err := DoGrouped(context.Background(), groups, WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		got := g.C.Unpack()
		if !matrix.WithinTol(got.Data(), wants[i].Data(), 1e-10) {
			t.Errorf("group %d: max diff %g", i, matrix.MaxAbsDiff(got.Data(), wants[i].Data()))
		}
	}
}

func TestTRSMGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type shape struct{ count, m, n int }
	shapes := []shape{{8, 4, 4}, {5, 9, 3}}
	var groups []Request[float32]
	var wants []*Batch[float32]
	for _, s := range shapes {
		a := randTriBatch[float32](rng, s.count, s.m)
		b := randBatch[float32](rng, s.count, s.m, s.n)
		want := &Batch[float32]{inner: b.inner.Clone()}
		matrix.RefTRSMBatch(Left, Lower, NoTrans, NonUnit, float32(1), a.inner, want.inner)
		wants = append(wants, want)
		groups = append(groups, Request[float32]{
			Op: OpTRSM, Side: Left, Uplo: Lower, TransA: NoTrans, Diag: NonUnit, Alpha: 1,
			A: Pack(a), B: Pack(b),
		})
	}
	if err := DoGrouped(context.Background(), groups); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		got := g.B.Unpack()
		if !matrix.WithinTol(got.Data(), wants[i].Data(), 1e-3) {
			t.Errorf("group %d: max diff %g", i, matrix.MaxAbsDiff(got.Data(), wants[i].Data()))
		}
	}
}

// A broken group must be reported with its index, as a typed *GroupError
// wrapping the engine-taxonomy cause.
func TestGroupedErrorReportsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	good := Request[float64]{
		Op: OpGEMM, TransA: NoTrans, TransB: NoTrans, Alpha: 1, Beta: 1,
		A: Pack(randBatch[float64](rng, 2, 2, 2)),
		B: Pack(randBatch[float64](rng, 2, 2, 2)),
		C: Pack(randBatch[float64](rng, 2, 2, 2)),
	}
	bad := good
	bad.B = Pack(randBatch[float64](rng, 2, 5, 2)) // shape mismatch
	err := DoGrouped(context.Background(), []Request[float64]{good, bad})
	if err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if want := "group 1"; !contains(err.Error(), want) {
		t.Errorf("error %q lacks %q", err, want)
	}
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("error %T is not a *GroupError", err)
	}
	if ge.Op != "GEMM" || ge.Index != 1 {
		t.Errorf("GroupError{Op: %q, Index: %d}, want {GEMM, 1}", ge.Op, ge.Index)
	}
	if !errors.Is(err, ErrShape) {
		t.Errorf("GroupError does not unwrap to ErrShape: %v", err)
	}
}

// Grouped TRMM over heterogeneous shapes must match per-group oracles.
func TestTRMMGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	type shape struct{ count, m, n int }
	shapes := []shape{{7, 4, 6}, {3, 9, 2}}
	var groups []Request[float64]
	var wants []*Batch[float64]
	for _, s := range shapes {
		a := randTriBatch[float64](rng, s.count, s.m)
		b := randBatch[float64](rng, s.count, s.m, s.n)
		want := &Batch[float64]{inner: b.inner.Clone()}
		matrix.RefTRMMBatch(Left, Lower, NoTrans, NonUnit, 1.5, a.inner, want.inner)
		wants = append(wants, want)
		groups = append(groups, Request[float64]{
			Op: OpTRMM, Side: Left, Uplo: Lower, TransA: NoTrans, Diag: NonUnit, Alpha: 1.5,
			A: Pack(a), B: Pack(b),
		})
	}
	if err := DoGrouped(context.Background(), groups); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		got := g.B.Unpack()
		if !matrix.WithinTol(got.Data(), wants[i].Data(), 1e-10) {
			t.Errorf("group %d: max diff %g", i, matrix.MaxAbsDiff(got.Data(), wants[i].Data()))
		}
	}
}

// Grouped SYRK over heterogeneous shapes must match per-group oracles,
// and a failing group must carry its index and taxonomy.
func TestSYRKGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	type shape struct{ count, n, k int }
	shapes := []shape{{6, 5, 3}, {4, 7, 7}}
	var groups []Request[float64]
	var wants []*Batch[float64]
	for _, s := range shapes {
		a := randBatch[float64](rng, s.count, s.n, s.k)
		c := randBatch[float64](rng, s.count, s.n, s.n)
		want := &Batch[float64]{inner: c.inner.Clone()}
		matrix.RefSYRKBatch(Lower, NoTrans, 2.0, a.inner, 1.0, want.inner)
		wants = append(wants, want)
		groups = append(groups, Request[float64]{
			Op: OpSYRK, Uplo: Lower, TransA: NoTrans, Alpha: 2, Beta: 1,
			A: Pack(a), C: Pack(c),
		})
	}
	if err := DoGrouped(context.Background(), groups); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		got := g.C.Unpack()
		if !matrix.WithinTol(got.Data(), wants[i].Data(), 1e-10) {
			t.Errorf("group %d: max diff %g", i, matrix.MaxAbsDiff(got.Data(), wants[i].Data()))
		}
	}

	bad := groups[0]
	bad.C = Pack(randBatch[float64](rng, 6, 4, 4)) // C rows disagree with op(A)
	err := DoGrouped(context.Background(), []Request[float64]{groups[0], bad})
	var ge *GroupError
	if !errors.As(err, &ge) || ge.Index != 1 || ge.Op != "SYRK" {
		t.Errorf("bad SYRK group: err = %v, want *GroupError{SYRK, 1}", err)
	}
	if !errors.Is(err, ErrShape) {
		t.Errorf("bad SYRK group does not unwrap to ErrShape: %v", err)
	}
}

// A grouped call runs where its options say: WithEngine(e) plans every
// group on e and leaves the default engine's plan cache untouched.
func TestGroupedHonorsWithEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	e := NewEngine()
	mk := func(n int) Request[float32] {
		return Request[float32]{Op: OpSYRK, Uplo: Upper, TransA: Transpose, Alpha: 1, Beta: 0,
			A: Pack(randBatch[float32](rng, 3, 5, n)), C: Pack(randBatch[float32](rng, 3, n, n))}
	}
	before := DefaultEngine().Stats().PlanMisses
	if err := DoGrouped(context.Background(), []Request[float32]{mk(11), mk(13)}, WithEngine(e)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PlanMisses; got != 2 {
		t.Errorf("private engine plan misses = %d, want 2 (one per group shape)", got)
	}
	if got := DefaultEngine().Stats().PlanMisses - before; got != 0 {
		t.Errorf("default engine recorded %d plan misses for a WithEngine grouped call", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
