// Kernel-schedule memoization: the install-time stage's product —
// generated, list-scheduled kernel programs — is pure data, so one
// process-wide Memo keyed by the generator spec and the scheduling
// machine lets every VM and cycle-model execution of a kernel share one
// schedule.
package kopt

import (
	"sync"

	"iatf/internal/asm"
)

// Memo is a concurrency-safe kernel-schedule cache keyed by the caller's
// comparable spec tuple.
type Memo struct {
	mu   sync.Mutex
	live map[any]asm.Prog

	hits   uint64
	misses uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{live: make(map[any]asm.Prog)}
}

// Get returns the cached program for key, counting a hit or a miss.
func (m *Memo) Get(key any) (asm.Prog, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.live[key]; ok {
		m.hits++
		return p, true
	}
	m.misses++
	return nil, false
}

// Put inserts a freshly built schedule.
func (m *Memo) Put(key any, p asm.Prog) {
	m.mu.Lock()
	m.live[key] = p
	m.mu.Unlock()
}

// Stats returns the lookup counters: hits, and misses (schedules built).
func (m *Memo) Stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
