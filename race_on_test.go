//go:build race

package iatf

// raceEnabled reports a -race build. sync.Pool then drops a quarter of
// its Puts, so a call that takes pooled buffers allocates a varying
// number of objects and cannot hold an allocation budget.
const raceEnabled = true
