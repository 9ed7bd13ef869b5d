// Package store is an on-disk plan-descriptor file: plan-cache keys
// keyed by a tuning fingerprint. Nothing imports it. The engine layer
// that wrote and replayed these files is gone, because a plan is
// geometry and a cold plan build is faster than loading one
// (EXPERIMENTS.md); this package and its tests go next (ROADMAP item 2).
//
// Staleness handling is deliberately forgiving, because the store is a
// cache, never a source of truth:
//
//   - fingerprint mismatch → the file is ignored (ErrMismatch) and the
//     caller builds its plans live;
//   - format-version mismatch → same;
//   - corrupt or truncated file → ErrCorrupt, caller rebuilds;
//   - concurrent writers → each writes a private temp file in the target
//     directory and atomically renames it over the destination, so
//     readers always observe a complete file (last writer wins; a writer
//     that merges with the existing store before writing converges on
//     the union).
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// FormatVersion is the on-disk schema version. Files written under a
// different version are ignored, not migrated: the store can always be
// rebuilt from scratch by re-tuning.
const FormatVersion = 1

// ErrMismatch reports a structurally valid store file whose fingerprint
// or format version does not match the reader — stale relative to this
// engine, to be ignored.
var ErrMismatch = errors.New("autotune store fingerprint mismatch")

// ErrCorrupt reports a store file that could not be decoded — truncated,
// overwritten, or not a store file at all. Callers rebuild.
var ErrCorrupt = errors.New("autotune store corrupt")

// PlanDesc is the serializable identity of one cached plan: exactly the
// engine's plan-cache key. Mode flags travel as their internal integer
// encodings; the fingerprint pins the encoding's meaning.
type PlanDesc struct {
	Kind        int `json:"kind"`
	DType       int `json:"dtype"`
	M           int `json:"m"`
	N           int `json:"n,omitempty"`
	K           int `json:"k,omitempty"`
	TransA      int `json:"trans_a,omitempty"`
	TransB      int `json:"trans_b,omitempty"`
	Side        int `json:"side,omitempty"`
	Uplo        int `json:"uplo,omitempty"`
	Diag        int `json:"diag,omitempty"`
	CountBucket int `json:"count_bucket"`
}

// File is one decoded store.
type File struct {
	Version     int        `json:"version"`
	Fingerprint string     `json:"fingerprint"`
	CreatedUnix int64      `json:"created_unix"`
	Tool        string     `json:"tool,omitempty"`
	Plans       []PlanDesc `json:"plans"`
}

// New returns an empty store for a fingerprint, stamped now.
func New(fingerprint, tool string) *File {
	return &File{
		Version:     FormatVersion,
		Fingerprint: fingerprint,
		CreatedUnix: time.Now().Unix(),
		Tool:        tool,
	}
}

// DefaultDir returns the store directory: $IATF_STORE_DIR when set, else
// <user cache dir>/iatf (~/.cache/iatf on Linux), else os.TempDir()/iatf
// when no cache dir resolves.
func DefaultDir() string {
	if d := os.Getenv("IATF_STORE_DIR"); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "iatf")
	}
	return filepath.Join(os.TempDir(), "iatf")
}

// PathFor returns the store file path for a fingerprint under dir. The
// fingerprint must be filesystem-safe.
func PathFor(dir, fingerprint string) string {
	return filepath.Join(dir, fingerprint+".json")
}

// Load reads and validates the store at path. It returns:
//
//   - (file, nil) on a valid store matching wantFingerprint;
//   - (nil, fs.ErrNotExist-wrapping error) when the file is absent;
//   - (nil, ErrCorrupt-wrapping error) when it cannot be decoded;
//   - (nil, ErrMismatch-wrapping error) on version or fingerprint skew.
//
// An empty wantFingerprint skips the fingerprint check (inspection
// tools).
func Load(path, wantFingerprint string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %s: format v%d, want v%d", ErrMismatch, path, f.Version, FormatVersion)
	}
	if wantFingerprint != "" && f.Fingerprint != wantFingerprint {
		return nil, fmt.Errorf("%w: %s: store is %q, engine is %q", ErrMismatch, path, f.Fingerprint, wantFingerprint)
	}
	return &f, nil
}

// WriteAtomic serializes the store to path via a same-directory temp
// file and rename, creating the directory as needed. Concurrent writers
// never interleave: each rename installs one complete file.
func (f *File) WriteAtomic(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// Merge folds other's plans into f, skipping duplicates: a writer
// unions with an existing store before writing.
func (f *File) Merge(other *File) {
	if other == nil {
		return
	}
	seenP := make(map[PlanDesc]bool, len(f.Plans))
	for _, p := range f.Plans {
		seenP[p] = true
	}
	for _, p := range other.Plans {
		if !seenP[p] {
			seenP[p] = true
			f.Plans = append(f.Plans, p)
		}
	}
}
