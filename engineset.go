// Public surface of the sharded scale-out path: an EngineSet owns N
// isolated engines and routes every call to its identity's home shard,
// so mixed traffic spreads across dispatchers while each problem
// identity keeps hitting one shard's warm plan and prepack caches. See
// internal/engine/set.go for the routing and work-stealing mechanics.

package iatf

import (
	"io"
	"net/http"
	"time"

	"iatf/internal/engine"
)

// EngineSet is a sharded group of isolated engines behind one dispatch
// surface. Calls routed through it (Do/Submit with WithEngineSet) are
// assigned a home shard by consistent hashing on the problem identity —
// op, dtype, mode flags and operand dimensions — so repeated shapes
// always land on the same shard's caches. Idle shards steal queued work
// from the deepest sibling, and a Submit whose home queue is full falls
// back to the least-loaded sibling once before returning ErrQueueFull.
//
// An EngineSet's dispatchers run for the life of the process: create one
// at startup and reuse it.
type EngineSet struct {
	inner *engine.Set
}

// EngineSetStats is a point-in-time view of a whole set: one ShardStats
// per shard (full engine counters plus routing attribution) and the
// cross-shard aggregate with shapes merged by identity.
type EngineSetStats = engine.SetStats

// ShardStats is one shard's slice of an EngineSetStats.
type ShardStats = engine.ShardStats

// DefaultShardCount returns the shard count NewEngineSet uses for
// n <= 0: min(GOMAXPROCS, NumCPU/2), floored at 1.
func DefaultShardCount() int { return engine.DefaultShards() }

// NewEngineSet builds a set of n isolated engines (n <= 0 uses
// DefaultShardCount), configured by the same options as NewEngine.
// Each shard has its own plan cache, prepack cache, buffer pools,
// worker fleet (capped at its core share) and submission queue;
// WithQueueCapacity/WithEDF/WithBatchWindow apply to every shard, and
// WithPlanStore hydrates each stored plan into its identity's home
// shard so the warm start lands exactly where live traffic routes.
func NewEngineSet(n int, opts ...EngineOption) *EngineSet {
	cfg := resolveConfig(opts)
	s := engine.NewSet(cfg.tun, n)
	cfg.applySet(s)
	return &EngineSet{inner: s}
}

// Shards returns the shard count.
func (s *EngineSet) Shards() int { return s.inner.Shards() }

// Shard returns shard i's engine for per-shard introspection (stats,
// tracing, metrics). Submitting work to it directly bypasses the
// identity router.
func (s *EngineSet) Shard(i int) *Engine {
	return &Engine{inner: s.inner.Shard(i)}
}

// Stats returns the set's current per-shard and aggregate counters.
func (s *EngineSet) Stats() EngineSetStats { return s.inner.Stats() }

// WriteMetrics renders one scrape of the whole set as OpenMetrics text:
// every family carries unlabeled aggregate samples plus one shard="k"
// sample per shard.
func (s *EngineSet) WriteMetrics(w io.Writer) error { return s.inner.WriteOpenMetrics(w) }

// MetricsHandler returns an http.Handler serving WriteMetrics with the
// OpenMetrics content type, mountable at /metrics.
func (s *EngineSet) MetricsHandler() http.Handler { return s.inner.MetricsHandler() }

// ResetShapeStats resets every shard's per-shape series and windowed
// queue state; see Engine.ResetShapeStats.
func (s *EngineSet) ResetShapeStats() { s.inner.ResetShapeStats() }

// SetProfileLabels toggles pprof goroutine labels on every shard.
func (s *EngineSet) SetProfileLabels(on bool) { s.inner.SetProfileLabels(on) }

// QueueStats returns the cross-shard aggregate of every shard's
// submission-queue counters — the cheap admission-control view of the
// whole set; see Engine.QueueStats.
func (s *EngineSet) QueueStats() QueueStats { return s.inner.QueueStats() }

// SetEDF toggles deadline-ordered dispatch on every shard; see
// Engine.SetEDF.
//
// Deprecated: prefer WithEDF at construction; SetEDF remains for
// runtime flips.
func (s *EngineSet) SetEDF(on bool) { s.inner.SetEDF(on) }

// SetBatchWindow sets every shard's max-batch-window; see
// Engine.SetBatchWindow.
//
// Deprecated: prefer WithBatchWindow at construction; SetBatchWindow
// remains for runtime adjustment.
func (s *EngineSet) SetBatchWindow(d time.Duration) { s.inner.SetBatchWindow(d) }

// WithEngineSet routes the call through a sharded engine set: the
// problem identity picks the home shard, keeping repeated shapes on one
// shard's warm caches. Overrides WithEngine when both are given.
func WithEngineSet(s *EngineSet) Option { return Option{set: s} }
