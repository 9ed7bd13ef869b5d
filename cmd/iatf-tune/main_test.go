package main

import (
	"testing"

	"iatf/internal/core"
	"iatf/internal/engine"
	"iatf/internal/store"
)

// bakes warms every descriptor on a fresh engine and returns how many
// plans the engine then exports.
func bakes(t *testing.T, descs []store.PlanDesc) int {
	t.Helper()
	eng := engine.New(core.DefaultTuning())
	for _, d := range descs {
		if err := eng.Warm(d); err != nil {
			t.Fatalf("warm %+v: %v", d, err)
		}
	}
	return len(eng.Export("").Plans)
}

// TestDefaultSweepBakesEachPlanOnce: every descriptor of the default
// sweep names its own plan, so the tool's baked count equals the number
// of plans it exports.
func TestDefaultSweepBakesEachPlanOnce(t *testing.T) {
	descs := defaultSweep([]int{1, 64})
	if got := bakes(t, descs); got != len(descs) {
		t.Errorf("default sweep: %d descriptors bake %d plans", len(descs), got)
	}
}

// TestParseShapesFactorizationsOnce: a factorization's plan keys no
// count, so -shapes gives it one descriptor whatever -counts lists.
func TestParseShapesFactorizationsOnce(t *testing.T) {
	descs, err := parseShapes("lu:f64:8,cholesky:f32:4,lupiv:f64:8,gemm:f32:8x8x8", []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 5 {
		t.Errorf("got %d descriptors, want 3 factorizations and 2 GEMM counts: %+v", len(descs), descs)
	}
	if got := bakes(t, descs); got != len(descs) {
		t.Errorf("%d descriptors bake %d plans", len(descs), got)
	}
}
