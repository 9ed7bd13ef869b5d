// Construction-time configuration for engines and engine sets. Options
// cover everything that is really a property of how the engine is
// built — queue capacity, drain order, batch window and machine
// profile — so configuration races (a queue resized after the
// dispatcher started) cannot happen by construction.
//
//	eng := iatf.NewEngine(
//	    iatf.WithMachineProfile(iatf.Kunpeng920()),
//	    iatf.WithQueueCapacity(4096),
//	)

package iatf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"iatf/internal/core"
	"iatf/internal/engine"
	"iatf/internal/machine"
)

// MachineProfile describes the modeled CPU an engine tunes for:
// frequency, vector width, port counts, instruction latencies and the
// cache hierarchy. It drives install-time kernel selection (CMAR + list
// scheduling) and the run-time cost model.
type MachineProfile = machine.Profile

// Kunpeng920 is the paper's primary target: an ARMv8 (TaiShan v110)
// profile. It is the default profile.
func Kunpeng920() MachineProfile { return machine.Kunpeng920() }

// Graviton2 is an ARMv8 (Neoverse N1) profile.
func Graviton2() MachineProfile { return machine.Graviton2() }

// XeonGold6240 is an x86 (Cascade Lake) comparison profile.
func XeonGold6240() MachineProfile { return machine.XeonGold6240() }

// ProfileNamed resolves a profile by its canonical name — the CLI
// surface of the built-in profiles ("kunpeng920", "graviton2",
// "xeon6240"). ok is false for unknown names.
func ProfileNamed(name string) (p MachineProfile, ok bool) {
	switch name {
	case "kunpeng920", "kunpeng-920", "kunpeng":
		return machine.Kunpeng920(), true
	case "graviton2", "graviton-2", "graviton":
		return machine.Graviton2(), true
	case "xeon6240", "xeon-gold-6240", "xeon":
		return machine.XeonGold6240(), true
	}
	return MachineProfile{}, false
}

// ProfileNames lists the names ProfileNamed accepts, for CLI usage
// strings.
func ProfileNames() []string { return []string{"kunpeng920", "graviton2", "xeon6240"} }

// engineConfig is the resolved option set NewEngine/NewEngineSet build
// from.
type engineConfig struct {
	tun   core.Tuning
	queue engine.QueueConfig // every shard's queue policy
}

// EngineOption configures NewEngine and NewEngineSet at construction
// time.
type EngineOption func(*engineConfig)

// WithMachineProfile tunes the engine for profile p instead of the
// default Kunpeng 920 model: the Batch Counter sizes super-batches to
// its L1 cache, and the per-shape series report its CMAR ceiling.
func WithMachineProfile(p MachineProfile) EngineOption {
	return func(c *engineConfig) { c.tun.Prof = p }
}

// WithQueueCapacity bounds the async submission queue (default 1024
// requests; values below 1 keep the default). Submissions beyond the
// bound fail fast with ErrQueueFull. The queue is sized when the engine
// is built, so the bound cannot race with the first Submit.
func WithQueueCapacity(n int) EngineOption {
	return func(c *engineConfig) { c.queue.Capacity = n }
}

// WithEDF sets the async queue's drain order: true (the default)
// executes each drained batch in earliest-deadline-first order, with
// WithPriority classes breaking ties, so a tight-deadline request never
// waits behind a loose one that merely arrived earlier; false restores
// FIFO.
func WithEDF(on bool) EngineOption {
	return func(c *engineConfig) { c.queue.FIFO = !on }
}

// WithBatchWindow sets the dispatcher's max-batch-window: after a
// batch's first request arrives the drain stays open for d, so a burst
// lands in one EDF-ordered batch, trading queue latency for deadline
// order across the whole burst. 0 (the default) drains only what already
// accumulated.
func WithBatchWindow(d time.Duration) EngineOption {
	return func(c *engineConfig) { c.queue.Window = d }
}

func resolveConfig(opts []EngineOption) engineConfig {
	cfg := engineConfig{tun: core.DefaultTuning()}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}

// ParseTenantSpec parses one tenant CLI spec — the shared syntax of the
// iatf-serve/iatf-monitor -tenant flags:
//
//	name=class[:objective_ms[:target]]
//
// class is the EDF dispatch class (higher drains first on deadline
// ties), objective_ms the per-request latency objective in milliseconds,
// and target the SLO attainment fraction in (0,1) — defaulting to 0.99
// when an objective is given without one. The objective must be finite,
// non-negative and fit a time.Duration. "rt=5:10:0.999" reads as
// "tenant rt, class 5, 10ms objective, 99.9% target".
func ParseTenantSpec(s string) (name string, obj TenantObjective, err error) {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" || spec == "" {
		return "", obj, fmt.Errorf("iatf: tenant spec %q: want name=class[:objective_ms[:target]]", s)
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return "", obj, fmt.Errorf("iatf: tenant spec %q: too many fields", s)
	}
	if obj.Class, err = strconv.Atoi(parts[0]); err != nil {
		return "", obj, fmt.Errorf("iatf: tenant spec %q: bad class %q", s, parts[0])
	}
	if len(parts) >= 2 {
		ms, ferr := strconv.ParseFloat(parts[1], 64)
		ns := ms * float64(time.Millisecond)
		// The negated bound also rejects NaN and +Inf.
		if ferr != nil || ms < 0 || !(ns < math.MaxInt64) {
			return "", obj, fmt.Errorf("iatf: tenant spec %q: bad objective_ms %q", s, parts[1])
		}
		obj.Objective = time.Duration(ns)
		if obj.Objective > 0 {
			obj.Target = 0.99
		}
	}
	if len(parts) == 3 {
		t, ferr := strconv.ParseFloat(parts[2], 64)
		if ferr != nil || !(t > 0 && t < 1) {
			return "", obj, fmt.Errorf("iatf: tenant spec %q: target %q must be in (0,1)", s, parts[2])
		}
		obj.Target = t
	}
	return name, obj, nil
}
