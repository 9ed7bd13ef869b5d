package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"iatf"
)

const (
	// fusedBurst is how many requests each client submits before waiting
	// for all of them.
	fusedBurst = 8
	fusedCount = 64
	fusedDim   = 8
)

var (
	fusedGEMM = problem{op: opGEMM, dt: 's', m: fusedDim, n: fusedDim, k: fusedDim, count: fusedCount}
	// The chain's stages, for FLOP accounting and plan timing.
	fusedChain = []problem{
		{op: opGEMM, dt: 'd', m: fusedDim, n: fusedDim, k: fusedDim, count: fusedCount},
		{op: opTRSM, dt: 'd', m: fusedDim, n: fusedDim, unit: true, count: fusedCount},
		{op: opTRSM, dt: 'd', m: fusedDim, n: fusedDim, upper: true, count: fusedCount},
	}
)

// fusedSlot is one request position of a client's burst. Inputs are never
// written, so each slot's expected result is fixed.
type fusedSlot struct {
	chain bool
	// GEMM slot (f32): C = A·B.
	a32, b32 []float32
	A32, B32 *iatf.Compact[float32]
	C32      *iatf.Compact[float32]
	req      iatf.Request[float32]
	want32   []float32
	// chain slot (f64): C = U⁻¹·L⁻¹·A·B.
	a64, b64, l64, u64 []float64
	C64                *iatf.Compact[float64]
	stages             []iatf.Stage[float64]
	want64             []float64
}

func (s *fusedSlot) flops() float64 {
	if !s.chain {
		return fusedGEMM.flops()
	}
	fl := 0.0
	for _, p := range fusedChain {
		fl += p.flops()
	}
	return fl
}

func (s *fusedSlot) build() {
	n, c := fusedDim, fusedCount
	if !s.chain {
		s.A32 = toCompact(s.a32, c, n, n)
		s.B32 = toCompact(s.b32, c, n, n)
		s.C32 = toCompact(make([]float32, c*n*n), c, n, n)
		s.req = gemmReq(false, false, float32(1), s.A32, s.B32, 0, s.C32)
		return
	}
	s.C64 = toCompact(make([]float64, c*n*n), c, n, n)
	s.stages = solveChain(toCompact(s.a64, c, n, n), toCompact(s.b64, c, n, n), s.C64,
		toCompact(s.l64, c, n, n), toCompact(s.u64, c, n, n))
}

func (s *fusedSlot) submit(ctx context.Context, t target, sink spanSink) (future, error) {
	if s.chain {
		return submitChain(ctx, t, s.stages, sink)
	}
	return submit(ctx, t, s.req, sink)
}

// check compares the slot's output bit for bit with the serial reference.
func (s *fusedSlot) check() error {
	if s.chain {
		return checkBits("chain", fromCompact(s.C64), s.want64)
	}
	return checkBits("gemm", fromCompact(s.C32), s.want32)
}

// queueFused is in-process async serving with fusion: nproc clients in a
// closed loop each submit a burst of fusedBurst — half f32 GEMM, half f64
// GEMM→TRSM→TRSM chains over fixed LU factors — to an EngineSet and wait
// for all of them. The async queue, single-op and chain fusion, set
// routing and the chain planner do the work.
type queueFused struct {
	clients [][]*fusedSlot
	t       target
	set     *iatf.EngineSet

	tamper func(s *fusedSlot)
}

func newQueueFused(seed int64) *queueFused {
	rng := rand.New(rand.NewSource(seed))
	w := &queueFused{}
	n, c := fusedDim, fusedCount
	for g := 0; g < runtime.NumCPU(); g++ {
		var slots []*fusedSlot
		for j := 0; j < fusedBurst; j++ {
			s := &fusedSlot{chain: j%2 == 1}
			if s.chain {
				s.a64 = randVals[float64](rng, c*n*n)
				s.b64 = randVals[float64](rng, c*n*n)
				s.l64 = randTriangles[float64](rng, c, n, false, true)
				s.u64 = randTriangles[float64](rng, c, n, true, false)
			} else {
				s.a32 = randVals[float32](rng, c*n*n)
				s.b32 = randVals[float32](rng, c*n*n)
			}
			slots = append(slots, s)
		}
		w.clients = append(w.clients, slots)
	}
	return w
}

func (w *queueFused) problems() []problem {
	return append([]problem{fusedGEMM}, fusedChain...)
}

func (w *queueFused) representative() problem { return fusedGEMM }

func (w *queueFused) setup(ctx context.Context, tr *tracer) error {
	w.t, w.set = newSetTarget(defaultShards())
	for _, slots := range w.clients {
		for _, s := range slots {
			s.build()
		}
	}
	// The two distinct problems: a GEMM slot and a chain slot.
	for _, s := range w.clients[0][:2] {
		f, err := s.submit(ctx, w.t, tr.sink(0))
		if err != nil {
			return err
		}
		if err := wait(ctx, f); err != nil {
			return err
		}
	}
	return nil
}

// verify computes every slot's serial reference through a private
// engine's sync Do and Chain, checks one of each kind against the
// internal/matrix reference, then checks the set-up's first results.
func (w *queueFused) verify() error {
	ctx := context.Background()
	oracle, _ := newEngineTarget()
	n, c := fusedDim, fusedCount
	for gi, slots := range w.clients {
		for si, s := range slots {
			if !s.chain {
				out := toCompact(make([]float32, c*n*n), c, n, n)
				req := gemmReq(false, false, float32(1), toCompact(s.a32, c, n, n), toCompact(s.b32, c, n, n), 0, out)
				if err := do(ctx, oracle, req, nil); err != nil {
					return fmt.Errorf("oracle gemm: %w", err)
				}
				s.want32 = fromCompact(out)
				if gi == 0 && si == 0 {
					if err := checkClose("gemm vs reference", s.want32, reference(fusedGEMM, s.a32, s.b32, make([]float32, c*n*n)), refTolS); err != nil {
						return err
					}
				}
				continue
			}
			out := toCompact(make([]float64, c*n*n), c, n, n)
			st := solveChain(toCompact(s.a64, c, n, n), toCompact(s.b64, c, n, n), out,
				toCompact(s.l64, c, n, n), toCompact(s.u64, c, n, n))
			if err := chainSync(ctx, oracle, st); err != nil {
				return fmt.Errorf("oracle chain: %w", err)
			}
			s.want64 = fromCompact(out)
			if gi == 0 && si == 1 {
				ab := reference(fusedChain[0], s.a64, s.b64, make([]float64, c*n*n))
				x := reference(fusedChain[2], s.u64, reference(fusedChain[1], s.l64, ab, nil), nil)
				if err := checkClose("chain vs reference", s.want64, x, refTolD); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range w.clients[0][:2] {
		if err := s.check(); err != nil {
			return fmt.Errorf("first result: %w", err)
		}
	}
	return nil
}

func (w *queueFused) measure(ctx context.Context, seconds float64, tr *tracer) *phase {
	ph := &phase{}
	limit := time.Duration(seconds * float64(time.Second))
	parts := make([]*phase, len(w.clients))
	var wg sync.WaitGroup
	ph.clock.start()
	start := time.Now()
	r := &rounds{n: len(w.clients), start: start, limit: limit}
	r.cond = sync.NewCond(&r.mu)
	for g, slots := range w.clients {
		parts[g] = &phase{}
		wg.Add(1)
		go func(g int, slots []*fusedSlot, part *phase) {
			defer wg.Done()
			futs := make([]future, len(slots))
			errs := make([]error, len(slots))
			t0 := make([]time.Time, len(slots))
			ends := make([]func(), len(slots))
			for {
				round, more := r.next()
				if !more {
					return
				}
				base := (round*len(w.clients) + g) * len(slots) // op ids of this burst
				for j, s := range slots {
					t0[j] = time.Now()
					_, ends[j] = tr.begin(opName(s), 0, base+j)
					futs[j], errs[j] = s.submit(ctx, w.t, tr.sink(base+j))
				}
				for j, s := range slots {
					part.attempted++
					err := errs[j]
					if err == nil {
						err = wait(ctx, futs[j])
					}
					done := time.Now()
					ends[j]()
					rec := opRec{lat: done.Sub(t0[j]), flops: s.flops()}
					if err != nil {
						part.fail(fmt.Errorf("%s: %w", opName(s), err), false)
					} else {
						if w.tamper != nil {
							w.tamper(s)
						}
						if cerr := s.check(); cerr != nil {
							part.fail(cerr, true)
						} else {
							rec.ok = true
						}
					}
					part.ops = append(part.ops, rec)
				}
			}
		}(g, slots, parts[g])
	}
	wg.Wait()
	ph.clock.stop()
	for _, p := range parts {
		ph.merge(p)
	}
	return ph
}

// rounds releases the clients together at the start of every burst and
// stops them together once the phase has lasted limit, so each round's
// bursts race for the queue the same way.
type rounds struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	stop    bool
	start   time.Time
	limit   time.Duration
}

// next blocks until every client has arrived, then returns the round to
// run, or false once the phase is over.
func (r *rounds) next() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.gen
	r.arrived++
	if r.arrived == r.n {
		r.arrived = 0
		r.gen++
		r.stop = time.Since(r.start) >= r.limit
		r.cond.Broadcast()
	} else {
		for gen == r.gen {
			r.cond.Wait()
		}
	}
	return gen, !r.stop
}

func opName(s *fusedSlot) string {
	if s.chain {
		return "iatf.SubmitChain"
	}
	return "iatf.Submit"
}

func (w *queueFused) close() {}
