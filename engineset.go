// Public surface of the sharded scale-out path: an EngineSet owns N
// isolated engines and routes every call to its identity's home shard,
// so mixed traffic spreads across dispatchers while each problem
// identity keeps hitting one shard's warm plan and prepack caches. See
// internal/engine/set.go for the routing and work-stealing mechanics.

package iatf

import "iatf/internal/engine"

// EngineSet is a sharded group of isolated engines behind one dispatch
// surface. It embeds the Engine its calls go through: every Engine
// method acts on all shards, and WithEngine(set.Engine) — or
// WithEngineSet(set) — sends a call to its home shard, picked by
// consistent hashing on the problem identity (op, dtype, mode flags and
// operand dimensions), so repeated shapes always land on the same
// shard's caches. Idle shards steal queued work from the deepest
// sibling, and a Submit whose home queue is full falls back to the
// least-loaded sibling once before returning ErrQueueFull.
//
// An EngineSet's dispatchers run for the life of the process: create one
// at startup and reuse it.
type EngineSet struct {
	*Engine
}

// EngineSetStats is a point-in-time view of a whole set: one entry per
// shard (full engine counters plus routing attribution) and the
// cross-shard aggregate with shapes merged by identity.
type EngineSetStats = engine.SetStats

// DefaultShardCount returns the shard count NewEngineSet uses for
// n <= 0: min(GOMAXPROCS, NumCPU/2), floored at 1.
func DefaultShardCount() int { return engine.DefaultShards() }

// NewEngineSet builds a set of n isolated engines (n <= 0 uses
// DefaultShardCount), configured by the same options as NewEngine.
// Each shard has its own plan cache, prepack cache, buffer pools,
// worker fleet (capped at its core share when n > 1) and submission
// queue; every option applies to every shard. A set of one is exactly
// NewEngine.
func NewEngineSet(n int, opts ...EngineOption) *EngineSet {
	return &EngineSet{newEngine(n, opts)}
}

// Shards returns the shard count.
func (s *EngineSet) Shards() int { return s.inner.Shards() }

// Stats returns the set's current per-shard and aggregate counters;
// Engine.Stats is the aggregate alone.
func (s *EngineSet) Stats() EngineSetStats { return s.inner.Stats() }

// WithEngineSet routes the call through a sharded engine set: the
// problem identity picks the home shard, keeping repeated shapes on one
// shard's warm caches. It is WithEngine(s.Engine): when both are given
// the later one wins.
func WithEngineSet(s *EngineSet) Option { return WithEngine(s.Engine) }
