package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/vec"
)

type triMode struct {
	side matrix.Side
	uplo matrix.Uplo
	ta   matrix.Trans
	diag matrix.Diag
}

func allTriModes() []triMode {
	var out []triMode
	for _, side := range []matrix.Side{matrix.Left, matrix.Right} {
		for _, uplo := range []matrix.Uplo{matrix.Lower, matrix.Upper} {
			for _, ta := range []matrix.Trans{matrix.NoTrans, matrix.Transpose} {
				for _, diag := range []matrix.Diag{matrix.NonUnit, matrix.Unit} {
					out = append(out, triMode{side, uplo, ta, diag})
				}
			}
		}
	}
	return out
}

// triShape is the geometry a triangular plan exposes.
type triShape struct {
	MEff, NEff           int
	TransposeB, ReverseB bool
	Panels, ColTiles     []int
	GroupsPerBatch       int
	TriLen               int
}

// TRSM and TRMM run the same run-time stage up to their kernels, so for
// one problem their plans must agree on every geometry decision — under
// a lane override too, where the Batch Counter's group cap depends on
// which lane count it divides by.
func TestTRSMAndTRMMPlansShareGeometry(t *testing.T) {
	built := 0
	for _, dt := range vec.DTypes {
		for _, md := range allTriModes() {
			for _, vl := range []int{0, 2, 8, 16} {
				tun := DefaultTuning()
				tun.VL = vl
				for _, count := range []int{1, 7, 25, 64, 200} {
					for _, mn := range [][2]int{{3, 5}, {9, 6}} {
						sp, serr := NewTRSMPlan(TRSMProblem{DT: dt, M: mn[0], N: mn[1], Side: md.side, Uplo: md.uplo,
							TransA: md.ta, Diag: md.diag, Alpha: 1, Count: count}, tun)
						mp, merr := NewTRMMPlan(TRMMProblem{DT: dt, M: mn[0], N: mn[1], Side: md.side, Uplo: md.uplo,
							TransA: md.ta, Diag: md.diag, Alpha: 1, Count: count}, tun)
						if (serr == nil) != (merr == nil) {
							t.Fatalf("%v VL=%d count=%d %dx%d: TRSM err %v, TRMM err %v", dt, vl, count, mn[0], mn[1], serr, merr)
						}
						if serr != nil {
							continue
						}
						built++
						want := triShape{sp.MEff, sp.NEff, sp.TransposeB, sp.ReverseB,
							sp.Panels, sp.ColTiles, sp.GroupsPerBatch, sp.PrepackTriLen(count)}
						got := triShape{mp.MEff, mp.NEff, mp.TransposeB, mp.ReverseB,
							mp.Panels, mp.ColTiles, mp.GroupsPerBatch, mp.PrepackTriLen(count)}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%v %s VL=%d count=%d %dx%d: TRMM geometry %+v, TRSM %+v",
								dt, sp.P.Mode(), vl, count, mn[0], mn[1], got, want)
						}
					}
				}
			}
		}
	}
	if built == 0 {
		t.Fatal("no plan built; the comparison is vacuous")
	}
}

// triOp adapts TRSM or TRMM to the native-against-VM parity check.
type triOp[E vec.Float] struct {
	name    string
	geo     *TriGeom
	prepack func(a *layout.Compact[E], dst []E) error
	native  func(a, b *layout.Compact[E], pre []E, workers int) error
	vm      func(a, b *layout.Compact[E]) error
}

func triOps[E vec.Float](t *testing.T, dt vec.DType, md triMode, m, n, count int, tun Tuning) []triOp[E] {
	t.Helper()
	sp, err := NewTRSMPlan(TRSMProblem{DT: dt, M: m, N: n, Side: md.side, Uplo: md.uplo,
		TransA: md.ta, Diag: md.diag, Alpha: 1.5, Count: count}, tun)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewTRMMPlan(TRMMProblem{DT: dt, M: m, N: n, Side: md.side, Uplo: md.uplo,
		TransA: md.ta, Diag: md.diag, Alpha: 1.5, Count: count}, tun)
	if err != nil {
		t.Fatal(err)
	}
	return []triOp[E]{
		{"TRSM " + sp.P.Mode(), &sp.TriGeom,
			func(a *layout.Compact[E], dst []E) error { return PrepackTRSMTri(sp, a, dst) },
			func(a, b *layout.Compact[E], pre []E, w int) error { return ExecTRSMNativePrepacked(sp, a, b, pre, w) },
			func(a, b *layout.Compact[E]) error { return ExecTRSM(sp, a, b, nil) }},
		{"TRMM " + mp.P.Mode(), &mp.TriGeom,
			func(a *layout.Compact[E], dst []E) error { return PrepackTRMMTri(mp, a, dst) },
			func(a, b *layout.Compact[E], pre []E, w int) error { return ExecTRMMNativePrepacked(mp, a, b, pre, w) },
			func(a, b *layout.Compact[E]) error { return ExecTRMM(mp, a, b, nil) }},
	}
}

// The native worker reads and writes each group's B in place through
// BStrides, while the VM path still copies B into canonical order and
// back (pack.BCopy/BUncopy). Each lane runs the same operations in the
// same order either way, so the two must agree bit for bit on every
// side/uplo/trans/diag mode, dtype, worker split, batch split and
// triangle source (packed per call or prepacked).
func TestTriNativeMatchesVM(t *testing.T) {
	rng := rand.New(rand.NewSource(316))
	for _, dt := range vec.DTypes {
		for _, md := range allTriModes() {
			for _, count := range []int{1, 7, 9} {
				for _, force := range []int{0, 1} {
					if dt.Real() == vec.S {
						triParity[float32](t, rng, dt, md, count, force)
					} else {
						triParity[float64](t, rng, dt, md, count, force)
					}
				}
			}
		}
	}
}

func triParity[E vec.Float](t *testing.T, rng *rand.Rand, dt vec.DType, md triMode, count, force int) {
	t.Helper()
	const m, n = 9, 6
	tun := DefaultTuning()
	tun.ForceGroupsPerBatch = force
	for _, op := range triOps[E](t, dt, md, m, n, count, tun) {
		g := op.geo
		a := randCompact[E](rng, dt, count, g.MEff, g.MEff)
		for v := 0; v < count; v++ {
			for i := 0; i < g.MEff; i++ {
				re, im := a.At(v, i, i)
				a.Set(v, i, i, re+2, im)
			}
		}
		b := randCompact[E](rng, dt, count, m, n)
		want := b.Clone()
		if err := op.vm(a, want); err != nil {
			t.Fatal(err)
		}
		preTri := make([]E, g.PrepackTriLen(a.Groups()))
		if err := op.prepack(a, preTri); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, pre := range [][]E{nil, preTri} {
				label := fmt.Sprintf("%s count=%d force=%d", op.name, count, force)
				if pre != nil {
					label += " prepacked"
				}
				got := b.Clone()
				if err := op.native(a, got, pre, workers); err != nil {
					t.Fatal(err)
				}
				diffCompact(t, label, dt.String(), workers, want.Data, got.Data)
			}
		}
	}
}
