package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func sampleFile(fp string) *File {
	f := New(fp, "test")
	f.Plans = []PlanDesc{
		{Kind: 0, DType: 1, M: 8, N: 8, K: 8, CountBucket: 64},
		{Kind: 1, DType: 0, M: 4, N: 2, CountBucket: 1},
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	path := PathFor(t.TempDir(), "fp-1")
	f := sampleFile("fp-1")
	if err := f.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, f)
	}
	// Empty wantFingerprint skips the check (inspection tools).
	if _, err := Load(path, ""); err != nil {
		t.Fatalf("inspection load: %v", err)
	}
}

func TestLoadAbsent(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.json"), "fp")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestLoadFingerprintMismatch(t *testing.T) {
	path := PathFor(t.TempDir(), "fp-a")
	if err := sampleFile("fp-a").WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path, "fp-b")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	path := PathFor(t.TempDir(), "fp-a")
	f := sampleFile("fp-a")
	f.Version = FormatVersion + 1
	if err := f.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path, "fp-a")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func TestLoadCorrupt(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not a store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(garbage, "fp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: err = %v, want ErrCorrupt", err)
	}

	// Truncation mid-document must also read as corrupt, not crash.
	whole := PathFor(dir, "fp-t")
	if err := sampleFile("fp-t").WriteAtomic(whole); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(whole, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(whole, "fp-t"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrCorrupt", err)
	}
}

func TestWriteAtomicReplacesAndLeavesNoTemps(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "fp-r")
	if err := sampleFile("fp-r").WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	f2 := New("fp-r", "test2")
	f2.Plans = []PlanDesc{{Kind: 3, DType: 1, M: 16, K: 16, CountBucket: 2}}
	if err := f2.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "fp-r")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "test2" || len(got.Plans) != 1 {
		t.Fatalf("replacement not observed: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestMergeDedups(t *testing.T) {
	a := sampleFile("fp-m")
	b := sampleFile("fp-m") // identical: merge must add nothing
	b.Plans = append(b.Plans, PlanDesc{Kind: 2, DType: 1, M: 3, N: 3, CountBucket: 1})
	a.Merge(b)
	if len(a.Plans) != 3 {
		t.Fatalf("plans after merge = %d, want 3 (2 original + 1 new)", len(a.Plans))
	}
	a.Merge(nil) // nil other is a no-op
	if len(a.Plans) != 3 {
		t.Fatalf("nil merge changed plans: %d", len(a.Plans))
	}
}

// TestConcurrentWriters hammers one path with load-merge-write cycles —
// concurrent pre-baking writers — while readers continuously load.
// Readers must never observe a torn file: every load is either a fully
// valid store or fs.ErrNotExist.
func TestConcurrentWriters(t *testing.T) {
	path := PathFor(t.TempDir(), "fp-c")
	const writers, rounds = 4, 8
	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})

	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := Load(path, "fp-c")
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("reader observed %v", err)
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f := New("fp-c", "tuner")
				f.Plans = []PlanDesc{{Kind: 0, DType: 1, M: 10*w + r, N: 1, K: 1, CountBucket: 1}}
				if prev, err := Load(path, "fp-c"); err == nil {
					f.Merge(prev)
				}
				if err := f.WriteAtomic(path); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	final, err := Load(path, "fp-c")
	if err != nil {
		t.Fatal(err)
	}
	// Last writer's final round merged what it saw, so the union is at
	// least its own entries; every entry must be one some writer produced.
	if len(final.Plans) == 0 {
		t.Fatal("final store empty")
	}
	for _, p := range final.Plans {
		if p.M < 0 || p.M >= 10*writers+rounds || p.N != 1 || p.K != 1 {
			t.Fatalf("foreign plan in final store: %+v", p)
		}
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv("IATF_STORE_DIR", "/tmp/iatf-env-test")
	if got := DefaultDir(); got != "/tmp/iatf-env-test" {
		t.Fatalf("DefaultDir = %q, want env override", got)
	}
	t.Setenv("IATF_STORE_DIR", "")
	if got := DefaultDir(); got == "" || got == "/tmp/iatf-env-test" {
		t.Fatalf("DefaultDir without env = %q", got)
	}
}
