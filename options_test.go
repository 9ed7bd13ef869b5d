package iatf

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestEngineOptionsApply(t *testing.T) {
	e := NewEngine(
		WithQueueCapacity(7),
		WithEDF(false),
		WithBatchWindow(3*time.Millisecond),
	)
	s := e.Stats()
	if s.Queue.Capacity != 7 {
		t.Errorf("queue capacity = %d, want 7", s.Queue.Capacity)
	}
	if s.Queue.EDF {
		t.Error("EDF still on after WithEDF(false)")
	}
	if s.Queue.Window != 3*time.Millisecond {
		t.Errorf("batch window = %v, want 3ms", s.Queue.Window)
	}
}

func TestEngineSetOptionsApply(t *testing.T) {
	s := NewEngineSet(2, WithQueueCapacity(9), WithBatchWindow(time.Millisecond))
	for i, st := range s.Stats().Shards {
		if st.Queue.Capacity != 9 || st.Queue.Window != time.Millisecond {
			t.Errorf("shard %d: capacity %d window %v", i, st.Queue.Capacity, st.Queue.Window)
		}
	}
}

func TestWithMachineProfileChangesFingerprint(t *testing.T) {
	kp := NewEngine() // default profile is Kunpeng 920
	gv := NewEngine(WithMachineProfile(Graviton2()))
	if kp.Fingerprint() == gv.Fingerprint() {
		t.Fatal("different profiles share a fingerprint")
	}
	if kp.Fingerprint() != NewEngine(WithMachineProfile(Kunpeng920())).Fingerprint() {
		t.Fatal("explicit default profile changed the fingerprint")
	}
}

func TestProfileNamed(t *testing.T) {
	for _, name := range ProfileNames() {
		if _, ok := ProfileNamed(name); !ok {
			t.Errorf("ProfileNamed(%q) not found", name)
		}
	}
	if _, ok := ProfileNamed("cray-1"); ok {
		t.Error("unknown profile resolved")
	}
}

// TestWithPlanStoreWarmStart is the public-API warm-start path: tune in
// one engine, save, construct a second engine over the same store dir,
// and require its first call to be a hit with zero misses.
func TestWithPlanStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	run := func(e *Engine) {
		t.Helper()
		a := Pack(randBatch[float64](rng, 16, 6, 6))
		b := Pack(randBatch[float64](rng, 16, 6, 6))
		c := Pack(randBatch[float64](rng, 16, 6, 6))
		if err := Do(context.Background(), gemmReq(NoTrans, NoTrans, 1.0, a, b, 0.0, c), WithEngine(e)); err != nil {
			t.Fatal(err)
		}
	}

	e1 := NewEngine(WithPlanStore(dir))
	if e1.StorePath() == "" {
		t.Fatal("store not attached")
	}
	run(e1)
	if err := e1.SaveStore(); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(WithPlanStore(dir))
	if got, want := e2.Fingerprint(), e1.Fingerprint(); got != want {
		t.Fatalf("fingerprints differ: %q vs %q", got, want)
	}
	s := e2.Stats()
	if s.Store.Loads != 1 || s.PlanHydrated == 0 {
		t.Fatalf("construction did not hydrate: %+v / hydrated %d", s.Store, s.PlanHydrated)
	}
	run(e2)
	s = e2.Stats()
	if s.PlanMisses != 0 || s.PlanHits != 1 {
		t.Fatalf("warm start first call: %+v", s)
	}
}

// TestParseTenantSpec pins the -tenant flag grammar shared by
// iatf-serve and iatf-monitor: name=class[:objective_ms[:target]].
func TestParseTenantSpec(t *testing.T) {
	valid := []struct {
		in   string
		name string
		obj  TenantObjective
	}{
		{"batch=-1", "batch", TenantObjective{Class: -1}},
		{"rt=5:10", "rt", TenantObjective{Class: 5, Objective: 10 * time.Millisecond, Target: 0.99}},
		{"rt=5:10:0.999", "rt", TenantObjective{Class: 5, Objective: 10 * time.Millisecond, Target: 0.999}},
		{"rt=5:0.5", "rt", TenantObjective{Class: 5, Objective: 500 * time.Microsecond, Target: 0.99}},
		{"free=0:0", "free", TenantObjective{}}, // zero objective → no target default
	}
	for _, tc := range valid {
		name, obj, err := ParseTenantSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseTenantSpec(%q): %v", tc.in, err)
		}
		if name != tc.name || obj != tc.obj {
			t.Fatalf("ParseTenantSpec(%q) = %q %+v, want %q %+v", tc.in, name, obj, tc.name, tc.obj)
		}
	}

	invalid := []string{
		"",                  // empty
		"rt",                // no =
		"=5",                // empty name
		"rt=",               // empty spec
		"rt=5:10:0.9:extra", // too many fields
		"rt=high",           // non-numeric class
		"rt=5:-1",           // negative objective
		"rt=5:x",            // non-numeric objective
		"rt=5:10:0",         // target at lower bound
		"rt=5:10:1",         // target at upper bound
		"rt=5:10:1.5",       // target out of range
		"rt=5:10:y",         // non-numeric target
	}
	for _, in := range invalid {
		if _, _, err := ParseTenantSpec(in); err == nil {
			t.Fatalf("ParseTenantSpec(%q) accepted, want error", in)
		}
	}
}

// TestParseTenantSpecNonFinite: NaN, infinite and overflowing
// objectives and a NaN target are rejected. Accepted, they would turn
// the objective into a negative duration and export a target that
// encoding/json cannot encode.
func TestParseTenantSpecNonFinite(t *testing.T) {
	for _, in := range []string{
		"x=1:NaN",   // NaN objective
		"x=1:Inf",   // infinite objective
		"x=1:1e300", // objective overflows time.Duration
		"x=1:2:NaN", // NaN target
	} {
		if name, obj, err := ParseTenantSpec(in); err == nil {
			t.Errorf("ParseTenantSpec(%q) = %q %+v, want error", in, name, obj)
		}
	}
}

// FuzzParseTenantSpec: any input parses or fails without panicking, and
// an accepted spec names its tenant and holds a usable objective: a
// non-negative duration and a target of 0 (no SLO) or inside (0,1).
func FuzzParseTenantSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		name, obj, err := ParseTenantSpec(in)
		if err != nil {
			return
		}
		if name == "" || obj.Objective < 0 || !(obj.Target == 0 || obj.Target > 0 && obj.Target < 1) {
			t.Fatalf("ParseTenantSpec(%q) accepted %q %+v", in, name, obj)
		}
	})
}
