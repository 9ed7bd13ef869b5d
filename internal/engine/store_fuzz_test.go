package engine

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"iatf/internal/core"
	"iatf/internal/kopt"
	"iatf/internal/store"
)

// FuzzStoreLoad feeds arbitrary store files through the one loader,
// Set.LoadStore, on a one-shard and a two-shard set. Bytes that decode
// as a store.File get this tuning's fingerprint and format version
// stamped on, so hydration is reached; other bytes are written as they
// are and exercise the corrupt-file path. Loading must not panic, must
// fail soft (return nil), must install or reject each stored descriptor
// at most once, and must install the same plan keys however many shards
// share them. Each input runs on a fresh kernel memo, so nothing a load
// does to the memo can leak between inputs or into other tests.
func FuzzStoreLoad(f *testing.F) {
	tun := core.DefaultTuning()
	fp := storeFingerprint(tun)
	f.Fuzz(func(t *testing.T, data []byte) {
		old := core.SwapKernelMemo(kopt.NewMemo())
		defer core.SwapKernelMemo(old)

		path := store.PathFor(t.TempDir(), fp)
		var file store.File
		decoded := json.Unmarshal(data, &file) == nil
		if decoded {
			file.Fingerprint, file.Version = fp, store.FormatVersion
			if err := file.WriteAtomic(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var keys [2]map[planKey]bool
		var evicted uint64
		for i, n := range []int{1, 2} {
			s := NewSet(tun, n, QueueConfig{})
			s.SetStorePath(path)
			if err := s.LoadStore(); err != nil {
				t.Fatalf("%d-shard LoadStore: %v", n, err)
			}
			st := s.Stats().Aggregate
			if st.PlanHydrated+st.Store.PlansRejected > uint64(len(file.Plans)) {
				t.Fatalf("%d-shard set: hydrated %d + rejected %d > %d stored plans",
					n, st.PlanHydrated, st.Store.PlansRejected, len(file.Plans))
			}
			if decoded && st.Store.Loads != 1 {
				t.Fatalf("%d-shard set: a stamped file counted %d loads, want 1", n, st.Store.Loads)
			}
			evicted += st.PlanEvictions
			keys[i] = map[planKey]bool{}
			for _, e := range s.engines {
				for k := range plansOf(e) {
					keys[i][k] = true
				}
			}
		}
		// Eviction drops an arbitrary entry, so only an eviction-free
		// load pins the key sets.
		if evicted == 0 && !reflect.DeepEqual(keys[0], keys[1]) {
			t.Fatalf("one shard installed %d plan keys, two shards %d", len(keys[0]), len(keys[1]))
		}
	})
}
