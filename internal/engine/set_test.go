package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"iatf/internal/core"
	"iatf/internal/layout"
	"iatf/internal/matrix"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// setOperands builds a small pool of compact batches keyed by shape so
// the routing tests can hash thousands of identities without allocating
// thousands of batches.
type setOperands struct {
	rng   *rand.Rand
	cache map[[2]int]*layout.Compact[float32]
}

func newSetOperands(seed int64) *setOperands {
	return &setOperands{rng: rand.New(rand.NewSource(seed)), cache: map[[2]int]*layout.Compact[float32]{}}
}

func (so *setOperands) get(rows, cols int) Operand {
	k := [2]int{rows, cols}
	c, ok := so.cache[k]
	if !ok {
		c = randCompact(so.rng, 4, rows, cols)
		so.cache[k] = c
	}
	return op32(c)
}

// recordOf validates a stage list into a fresh identity record.
func recordOf(stages []ChainStage) *listID {
	id := new(listID)
	keyOf(id, stages)
	return id
}

// shaped returns an operand that is r×c after the trans flag applies.
func (so *setOperands) shaped(r, c int, trans matrix.Trans) Operand {
	if trans == matrix.Transpose {
		return so.get(c, r)
	}
	return so.get(r, c)
}

// TestSetRoutingStability drives 10k pseudo-random valid calls through
// the router and asserts (a) routing is deterministic, (b) it ignores
// scalars and the worker request (plan and pack geometry ignore them,
// so they must not split an identity across shards), (c) every shard of
// a 4-way set receives a reasonable share, and (d) growing the set
// relocates only a minority of keys (jump consistent hashing).
func TestSetRoutingStability(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 4, QueueConfig{})
	so := newSetOperands(70)
	rng := rand.New(rand.NewSource(71))

	const keys = 10000
	counts := make([]int, 4)
	moved := 0
	for i := 0; i < keys; i++ {
		kind := []OpKind{OpGEMM, OpTRSM, OpTRMM, OpSYRK}[rng.Intn(4)]
		op := OpDesc{
			Kind:   kind,
			TransA: matrix.Trans(rng.Intn(2)), TransB: matrix.Trans(rng.Intn(2)),
			Side: matrix.Side(rng.Intn(2)), Uplo: matrix.Uplo(rng.Intn(2)), Diag: matrix.Diag(rng.Intn(2)),
			Alpha: complex(rng.Float64(), 0), Beta: complex(rng.Float64(), 0),
			Workers: rng.Intn(8),
		}
		m, n, k := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		var ops []Operand
		switch kind {
		case OpGEMM:
			ops = []Operand{so.shaped(m, k, op.TransA), so.shaped(k, n, op.TransB), so.get(m, n)}
		case OpTRSM, OpTRMM:
			d := m
			if op.Side == matrix.Right {
				d = n
			}
			ops = []Operand{so.get(d, d), so.get(m, n)}
		case OpSYRK:
			ops = []Operand{so.shaped(n, k, op.TransA), so.get(n, n)}
		}
		id := recordOf(one(op, ops...))
		if id.err != nil {
			t.Fatalf("key %d: %v", i, id.err)
		}

		sh := s.home(id)
		if again := s.home(recordOf(one(op, ops...))); again != sh {
			t.Fatalf("key %d: route not deterministic: %d then %d", i, sh, again)
		}
		// Scalars and workers must not move the key.
		op2 := op
		op2.Alpha, op2.Beta, op2.Workers = complex(9, 0), complex(-3, 0), 99
		if s.home(recordOf(one(op2, ops...))) != sh {
			t.Fatalf("key %d: scalars/workers changed the route", i)
		}
		counts[sh]++
		if jumpHash(id.route(), 5) != sh {
			moved++
		}
	}
	for sh, c := range counts {
		if c < keys/10 {
			t.Errorf("shard %d received %d of %d keys — router is badly skewed: %v", sh, c, keys, counts)
		}
	}
	// Going 4 -> 5 shards should relocate ~1/5 of the keys, not ~4/5
	// (the modulo-hash failure mode).
	if moved > keys*35/100 {
		t.Errorf("growing 4 -> 5 shards moved %d/%d keys, want ~20%%", moved, keys)
	}
}

// setHomeGEMM probes GEMM square sizes until one routes to the wanted
// shard, returning the descriptor and fresh operands for it.
func setHomeGEMM(t *testing.T, s *Set, rng *rand.Rand, want, count int) (OpDesc, func() (a, b, c *layout.Compact[float32])) {
	t.Helper()
	desc := OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1, Workers: 1}
	for n := 3; n < 64; n++ {
		a, b, c := gemmReqOperands(rng, count, n, n, n)
		if jumpHash(recordOf(one(desc, op32(a), op32(b), op32(c))).route(), len(s.engines)) == want {
			size := n
			return desc, func() (a, b, c *layout.Compact[float32]) {
				return gemmReqOperands(rng, count, size, size, size)
			}
		}
	}
	t.Fatalf("no GEMM size routes to shard %d", want)
	return desc, nil
}

// parkOccupier submits same-identity occupiers until the target shard's
// dispatcher drains one and parks in its test hook. holdDispatcher
// forces the busy flag (to defeat the inline path), which also marks
// the shard an eligible steal victim — so a lone queued occupier can
// lose the race to an idle sibling's poller. A stolen occupier simply
// resolves on the thief; retry until the home dispatcher wins one.
func parkOccupier(t *testing.T, s *Set, desc OpDesc, mk func() (a, b, c *layout.Compact[float32]), entered chan int) (f *Future, occs int) {
	t.Helper()
	ctx := context.Background()
	for try := 0; try < 100; try++ {
		a, b, c := mk()
		f, err := s.Submit(ctx, one(desc, op32(a), op32(b), op32(c)), Call{})
		if err != nil {
			t.Fatal(err)
		}
		occs++
		select {
		case <-entered:
			return f, occs
		case <-f.Done():
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("dispatcher never parked: the sibling stole every occupier")
	return nil, occs
}

// TestSetStealParity parks the home shard's dispatcher, queues a burst
// of same-identity requests behind it, and asserts the idle sibling
// steals and executes them — with results bit-identical to serial
// direct runs on a reference engine, and the theft visible in the
// thief's stolen counters.
func TestSetStealParity(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	ref := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(72))

	const home = 0
	desc, mk := setHomeGEMM(t, s, rng, home, 13)
	entered, gate := holdDispatcher(s.engines[home])

	ctx := context.Background()
	// Occupier: starts every dispatcher (the set's first Submit), is
	// drained by the home dispatcher, and parks it in the test hook.
	f0, occs := parkOccupier(t, s, desc, mk, entered)

	const N = 6
	var futs [N]*Future
	var cs, want [N]*layout.Compact[float32]
	for i := 0; i < N; i++ {
		a, b, c := mk()
		want[i] = c.Clone()
		if err := ref.Run(context.Background(), one(desc, op32(a), op32(b), op32(want[i])), Call{}); err != nil {
			t.Fatal(err)
		}
		cs[i] = c
		var err error
		if futs[i], err = s.Submit(ctx, one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}

	// Only the sibling can resolve these: the home dispatcher is parked.
	deadline := time.After(10 * time.Second)
	for i := 0; i < N; i++ {
		select {
		case <-futs[i].Done():
			if err := futs[i].Err(); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("request %d not stolen within deadline (home dispatcher parked)", i)
		}
	}
	for i := 0; i < N; i++ {
		for j := range cs[i].Data {
			if cs[i].Data[j] != want[i].Data[j] {
				t.Fatalf("stolen request %d diverges from serial run at element %d: %g != %g",
					i, j, cs[i].Data[j], want[i].Data[j])
			}
		}
	}

	thief := s.engines[1].Stats().Queue
	if thief.StolenBatches == 0 || thief.StolenReqs == 0 {
		t.Errorf("thief shard shows no theft: batches=%d reqs=%d", thief.StolenBatches, thief.StolenReqs)
	}
	if max := uint64(N + occs - 1); thief.StolenReqs > max {
		t.Errorf("thief stole %d requests, only %d were queued", thief.StolenReqs, max)
	}

	close(gate)
	if err := f0.Err(); err != nil {
		t.Fatal(err)
	}

	// The set aggregate must account for every submission once.
	agg := s.Stats()
	if got := agg.Aggregate.Queue.Submitted; got != uint64(N+occs) {
		t.Errorf("aggregate submitted = %d, want %d", got, N+occs)
	}
	if agg.Aggregate.Queue.StolenReqs != thief.StolenReqs {
		t.Errorf("aggregate stolen reqs = %d, want %d", agg.Aggregate.Queue.StolenReqs, thief.StolenReqs)
	}
}

// TestSetQueueFullFallback fills the home shard's one-slot queue with
// both dispatchers parked and asserts the next submission falls back to
// the sibling (counted, no error) and the one after that — with both
// queues full — surfaces ErrQueueFull with the reject counted.
func TestSetQueueFullFallback(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{Capacity: 1})
	rng := rand.New(rand.NewSource(73))
	for i, e := range s.engines {
		if got := e.Stats().Queue.Capacity; got != 1 {
			t.Fatalf("shard %d capacity %d before the first Submit, want 1", i, got)
		}
	}
	s.SetTenants(map[string]obs.TenantObjective{})
	var mu sync.Mutex
	spans := map[string][]obs.Span{} // by origin
	sink := func(sp *obs.Span) {
		mu.Lock()
		spans[sp.Origin] = append(spans[sp.Origin], *sp)
		mu.Unlock()
	}

	desc0, mk0 := setHomeGEMM(t, s, rng, 0, 8)
	desc1, mk1 := setHomeGEMM(t, s, rng, 1, 8)
	entered0, gate0 := holdDispatcher(s.engines[0])
	entered1, gate1 := holdDispatcher(s.engines[1])

	ctx := context.Background()
	submit := func(desc OpDesc, mk func() (a, b, c *layout.Compact[float32]), origin string) (*Future, error) {
		a, b, c := mk()
		return s.Submit(ctx, one(desc, op32(a), op32(b), op32(c)), Call{Origin: origin, Sink: sink})
	}
	rejected := func() (n [2]uint64) {
		for i, e := range s.engines {
			n[i] = e.QueueStats().Rejected
		}
		return n
	}

	// Park both dispatchers, each on an occupier routed to it (retrying
	// occupiers the other shard's poller steals first).
	occ0, _ := parkOccupier(t, s, desc0, mk0, entered0)
	occ1, _ := parkOccupier(t, s, desc1, mk1, entered1)

	// Fill home (shard 0): one slot.
	q1, err := submit(desc0, mk0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Home full -> sibling fallback, no error and no rejection.
	q2, err := submit(desc0, mk0, "fallback")
	if err != nil {
		t.Fatalf("fallback submission failed: %v", err)
	}
	if got := s.Stats().Fallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := rejected(); got != [2]uint64{} {
		t.Errorf("a call the sibling took counted rejections %v", got)
	}
	// Both full -> typed backpressure, refused once, on the home shard.
	if _, err := submit(desc0, mk0, "refused"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("both-full submission: err = %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.FallbackRejects != 1 {
		t.Errorf("fallback rejects = %d, want 1", st.FallbackRejects)
	}
	if got := rejected(); got != [2]uint64{1, 0} {
		t.Errorf("rejections per shard %v, want [1 0]", got)
	}

	close(gate0)
	close(gate1)
	for _, f := range []*Future{occ0, occ1, q1, q2} {
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
	}

	// One record per call: one span and one tenant request each.
	mu.Lock()
	defer mu.Unlock()
	if sp := spans["fallback"]; len(sp) != 1 || sp[0].Error != "" {
		t.Errorf("fallback call left spans %+v, want one successful span", sp)
	}
	if sp := spans["refused"]; len(sp) != 1 || !strings.Contains(sp[0].Error, ErrQueueFull.Error()) {
		t.Errorf("refused call left spans %+v, want one ErrQueueFull span", sp)
	}
	ledger := map[string]string{}
	for _, ts := range s.TenantStats() {
		ledger[ts.Name] = fmt.Sprintf("requests=%d errors=%d sheds=%d", ts.Requests, ts.Errors, ts.Sheds)
	}
	want := map[string]string{"fallback": "requests=1 errors=0 sheds=0", "refused": "requests=1 errors=0 sheds=1"}
	if !reflect.DeepEqual(ledger, want) {
		t.Errorf("tenant ledger %v, want %v", ledger, want)
	}
}

// TestSetShardIsolation: traffic on one shard must not move a sibling
// shard's caches or counters — each shard owns its runtime wholesale.
func TestSetShardIsolation(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	rng := rand.New(rand.NewSource(74))
	desc, mk := setHomeGEMM(t, s, rng, 0, 8)

	before := s.engines[1].Stats()
	for i := 0; i < 4; i++ {
		a, b, c := mk()
		if err := s.Run(context.Background(), one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	after0 := s.engines[0].Stats()
	after1 := s.engines[1].Stats()
	if after0.PlanHits+after0.PlanMisses == 0 {
		t.Error("home shard saw no plan traffic")
	}
	if after1.PlanHits != before.PlanHits || after1.PlanMisses != before.PlanMisses ||
		after1.PlanEntries != before.PlanEntries {
		t.Errorf("idle sibling's plan cache moved: %+v -> %+v", before.PlanEntries, after1.PlanEntries)
	}
	if after1.Buffers.Gets != before.Buffers.Gets {
		t.Errorf("idle sibling's buffer pool moved: gets %d -> %d", before.Buffers.Gets, after1.Buffers.Gets)
	}
	if len(s.Stats().Shards) != 2 {
		t.Fatal("SetStats missing shards")
	}
}

// TestSetShapeShardLabels: per-shard snapshots carry their shard index,
// the aggregate merges same-identity series across shards, and a solo
// engine stays unlabeled (-1).
func TestSetShapeShardLabels(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	rng := rand.New(rand.NewSource(75))
	desc, mk := setHomeGEMM(t, s, rng, 1, 8)
	a, b, c := mk()
	if err := s.Run(context.Background(), one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	found := false
	for _, sh := range st.Shards[1].Shapes {
		if sh.Op == "GEMM" {
			if sh.Shard != 1 {
				t.Errorf("shard 1 snapshot labeled %d", sh.Shard)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("home shard's shape series missing the GEMM")
	}
	if len(st.Aggregate.Shapes) == 0 {
		t.Fatal("aggregate shapes empty")
	}
	for _, sh := range st.Aggregate.Shapes {
		if sh.Shard != -1 {
			t.Errorf("aggregate snapshot carries shard %d, want -1 (merged)", sh.Shard)
		}
	}

	solo := New(core.DefaultTuning())
	a2, b2, c2 := gemmReqOperands(rng, 8, 4, 4, 4)
	if err := solo.Run(context.Background(), one(OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1, Workers: 1}, op32(a2), op32(b2), op32(c2)), Call{}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range solo.Stats().Shapes {
		if sh.Shard != -1 {
			t.Errorf("solo engine snapshot labeled shard %d, want -1", sh.Shard)
		}
	}
}

// TestSetAggregateShapesMath checks the merge rules of AggregateShapes
// through the set surface: calls sum, AvgGFLOPS stays call-weighted and
// quantiles take the per-shard max (documented conservative).
func TestSetAggregateShapesMath(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	rng := rand.New(rand.NewSource(76))
	desc, mk := setHomeGEMM(t, s, rng, 0, 8)
	const calls = 3
	for i := 0; i < calls; i++ {
		a, b, c := mk()
		if err := s.Run(context.Background(), one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	var total uint64
	for _, shard := range st.Shards {
		for _, sh := range shard.Shapes {
			total += sh.Calls
		}
	}
	var aggTotal uint64
	for _, sh := range st.Aggregate.Shapes {
		aggTotal += sh.Calls
	}
	if total != calls || aggTotal != calls {
		t.Errorf("calls: per-shard %d, aggregate %d, want %d", total, aggTotal, calls)
	}
}

// TestSetRunParity: the same problem produces bit-identical results
// through a Set and through a solo engine (identity-affine routing must
// not change numerics), for every dtype.
func TestSetRunParity(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 3, QueueConfig{})
	solo := New(core.DefaultTuning())
	rng := rand.New(rand.NewSource(77))
	desc := OpDesc{Kind: OpGEMM, Alpha: complex(1.25, 0), Beta: complex(0.5, 0), Workers: 1}

	for _, dim := range [][3]int{{4, 4, 4}, {6, 5, 7}, {12, 9, 3}} {
		a, b, c := gemmReqOperands(rng, 11, dim[0], dim[1], dim[2])
		want := c.Clone()
		if err := solo.Run(context.Background(), one(desc, op32(a), op32(b), op32(want)), Call{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background(), one(desc, op32(a), op32(b), op32(c)), Call{}); err != nil {
			t.Fatal(err)
		}
		for j := range c.Data {
			if c.Data[j] != want.Data[j] {
				t.Fatalf("%v: set result diverges at %d", dim, j)
			}
		}
	}
}

// TestSetLeastLoadedSnapshotCoherence: the queue-full fallback's shard
// choice samples every depth into one snapshot before comparing, so
// under concurrent depth churn it must never return the shard it was
// asked to exclude (the one that just rejected the submission) and must
// always return a valid sibling. Before the snapshot fix the argmin scan
// interleaved live len(ch) reads, which could crown the skipped shard
// when depths moved mid-scan.
func TestSetLeastLoadedSnapshotCoherence(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 4, QueueConfig{})
	// Materialize the queue channels without starting dispatchers: the
	// test drives depth churn directly and nothing may drain it.
	for i := range s.engines {
		s.engines[i].queue.ch = make(chan *asyncReq, 8)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range s.engines {
		ch := s.engines[i].queue.ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				select {
				case ch <- &asyncReq{}:
				default:
				}
				select {
				case <-ch:
				default:
				}
			}
		}()
	}

	for skip := range s.engines {
		for iter := 0; iter < 5000; iter++ {
			got := s.leastLoaded(skip)
			if got == skip {
				t.Fatalf("leastLoaded(%d) returned the skipped shard under churn (iter %d)", skip, iter)
			}
			if got < 0 || got >= len(s.engines) {
				t.Fatalf("leastLoaded(%d) = %d, out of range", skip, got)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Degenerate single-shard set: with no sibling to fall back to the
	// skipped shard is the only possible answer.
	solo := NewSet(core.DefaultTuning(), 1, QueueConfig{})
	solo.engines[0].queue.ch = make(chan *asyncReq, 2)
	if got := solo.leastLoaded(0); got != 0 {
		t.Fatalf("single-shard leastLoaded(0) = %d, want 0", got)
	}
}

// TestSetLeastLoadedPicksShallowest: with static unequal depths the
// snapshot argmin must find the true minimum among the non-skipped
// shards — including when the skipped shard itself is the shallowest.
func TestSetLeastLoadedPicksShallowest(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 4, QueueConfig{})
	depths := []int{0, 3, 1, 2}
	for i := range s.engines {
		s.engines[i].queue.ch = make(chan *asyncReq, 8)
		for d := 0; d < depths[i]; d++ {
			s.engines[i].queue.ch <- &asyncReq{}
		}
	}
	if got := s.leastLoaded(1); got != 0 {
		t.Fatalf("leastLoaded(1) = %d, want 0 (depth 0)", got)
	}
	// Skip the shallowest: the next-best sibling wins, not the skipped one.
	if got := s.leastLoaded(0); got != 2 {
		t.Fatalf("leastLoaded(0) = %d, want 2 (depth 1)", got)
	}
}

// TestSetStealHookOnlyWithSiblings: a steal hook turns a shard's idle
// wait into a timed poll of its siblings, so only a set that has
// siblings installs one. A one-shard set's dispatcher must wait on its
// own queue exactly like a solo engine's.
func TestSetStealHookOnlyWithSiblings(t *testing.T) {
	one := NewSet(core.DefaultTuning(), 1, QueueConfig{})
	if one.engines[0].queue.steal != nil {
		t.Error("1-shard set installed a steal hook with no sibling to steal from")
	}
	two := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	for i, e := range two.engines {
		if e.queue.steal == nil {
			t.Errorf("2-shard set: shard %d has no steal hook", i)
		}
	}
}

// TestSetOfOneIsSoloShard: besides the steal hook, a one-shard set skips
// everything that only siblings need — the worker cap and the shard
// label — and routes nothing.
func TestSetOfOneIsSoloShard(t *testing.T) {
	solo := NewSet(core.DefaultTuning(), 1, QueueConfig{})
	e := solo.engines[0]
	if e.rt.Sched.MaxWorkers() != 0 || e.obs.Shard() != -1 {
		t.Errorf("1-shard set: worker cap %d, shard label %d; want 0, -1", e.rt.Sched.MaxWorkers(), e.obs.Shard())
	}
	if got := solo.home(recordOf(one(OpDesc{Kind: OpGEMM}))); got != 0 || solo.routed[0].Load() != 0 {
		t.Errorf("1-shard set: home %d, routed %d; want 0, 0", got, solo.routed[0].Load())
	}
	two := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	for i, e := range two.engines {
		if e.rt.Sched.MaxWorkers() < 1 || e.obs.Shard() != i {
			t.Errorf("2-shard set: shard %d has worker cap %d, label %d", i, e.rt.Sched.MaxWorkers(), e.obs.Shard())
		}
	}
}

// TestSetBroadcastsProfileLabels: one SetProfileLabels call on a set
// reaches every shard.
func TestSetBroadcastsProfileLabels(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 3, QueueConfig{})
	s.SetProfileLabels(true)
	for i, e := range s.engines {
		if !e.profLabels.Load() {
			t.Errorf("shard %d: profile labels off after Set.SetProfileLabels(true)", i)
		}
	}
}

// TestSetSquareGEMMSpread: the identity hash ends in an avalanche step,
// so the small square GEMMs a serving mix is full of spread over two
// shards instead of piling onto one.
func TestSetSquareGEMMSpread(t *testing.T) {
	s := NewSet(core.DefaultTuning(), 2, QueueConfig{})
	for _, dt := range []vec.DType{vec.S, vec.D} {
		var homes [2]int
		for n := 2; n <= 16; n++ {
			var o Operand
			if dt == vec.S {
				o = Operand{DT: dt, F32: layout.NewCompact[float32](dt, 1, n, n)}
			} else {
				o = Operand{DT: dt, F64: layout.NewCompact[float64](dt, 1, n, n)}
			}
			homes[s.home(recordOf(one(OpDesc{Kind: OpGEMM}, o, o, o)))]++
		}
		if homes[0] > 10 || homes[1] > 10 {
			t.Errorf("%v square GEMMs of order 2-16 home %v over two shards, want at most 10 of 15 on either", dt, homes)
		}
	}
}

// TestSetHomeTable pins where valid stage lists home on two and five
// shards: one-stage lists of every op (a TRSM with its unread TransB
// set homes with its plain twin), the queue-fused GEMM→TRSM→TRSM chain,
// LU→TRSM→TRSM and an aliased GEMM. Each list runs through Set.Run, and
// its home is the shard whose Routed count rose. A change to how a
// list's identity is derived must leave this table as it is.
func TestSetHomeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(230))
	f32 := func(rows, cols int) Operand { return op32(randCompact(rng, 6, rows, cols)) }
	f64 := func(rows, cols int) Operand { return opOf(vec.D, randCompactT[float64](rng, vec.D, 6, rows, cols)) }
	// dom returns an order-n operand with a dominant diagonal, which
	// every factorization and triangular solve here takes cleanly.
	dom := func(dt vec.DType, n int) Operand {
		if dt == vec.S {
			return op32(triCompact(rng, 6, n))
		}
		c := randCompactT[float64](rng, vec.D, 6, n, n)
		for v := 0; v < c.Count; v++ {
			for i := 0; i < n; i++ {
				c.Set(v, i, i, float64(n)+4, 0)
			}
		}
		return opOf(vec.D, c)
	}
	stage := func(op OpDesc, ops ...Operand) ChainStage { return one(op, ops...)[0] }
	lupiv := func(a Operand) []ChainStage {
		st := one(OpDesc{Kind: OpLUPiv, Workers: 1}, a)
		st[0].Piv = new(core.Pivots)
		return st
	}
	sq := f32(6, 6)
	l, u, c := dom(vec.D, 8), dom(vec.D, 8), f64(8, 8)
	fa := dom(vec.D, 6)
	fb := f64(6, 3)
	lists := []struct {
		name   string
		stages []ChainStage
		home   [2]int // on 2 and 5 shards
	}{
		{"gemm s NN 8", one(OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1}, f32(8, 8), f32(8, 8), f32(8, 8)), [2]int{0, 0}},
		{"gemm s TN 5x7x3", one(OpDesc{Kind: OpGEMM, TransA: matrix.Transpose, Alpha: 1}, f32(3, 5), f32(3, 7), f32(5, 7)), [2]int{0, 3}},
		{"gemm d NT 4x6x9", one(OpDesc{Kind: OpGEMM, TransB: matrix.Transpose, Alpha: 1}, f64(4, 9), f64(6, 9), f64(4, 6)), [2]int{1, 1}},
		{"gemm d TT 16", one(OpDesc{Kind: OpGEMM, TransA: matrix.Transpose, TransB: matrix.Transpose, Alpha: 1}, f64(16, 16), f64(16, 16), f64(16, 16)), [2]int{0, 3}},
		{"trsm s LLNN 6x4", one(OpDesc{Kind: OpTRSM, Uplo: matrix.Lower, Alpha: 1}, dom(vec.S, 6), f32(6, 4)), [2]int{0, 4}},
		{"trsm s LLNN 6x4 TransB", one(OpDesc{Kind: OpTRSM, Uplo: matrix.Lower, TransB: matrix.Transpose, Alpha: 1}, dom(vec.S, 6), f32(6, 4)), [2]int{0, 4}},
		{"trsm d RUTU 5x7", one(OpDesc{Kind: OpTRSM, Side: matrix.Right, Uplo: matrix.Upper, TransA: matrix.Transpose, Diag: matrix.Unit, Alpha: 1}, dom(vec.D, 7), f64(5, 7)), [2]int{1, 1}},
		{"trmm s LU 8x3", one(OpDesc{Kind: OpTRMM, Uplo: matrix.Upper, Alpha: 1}, dom(vec.S, 8), f32(8, 3)), [2]int{0, 2}},
		{"trmm d RLT 4", one(OpDesc{Kind: OpTRMM, Side: matrix.Right, Uplo: matrix.Lower, TransA: matrix.Transpose, Alpha: 1}, dom(vec.D, 4), f64(4, 4)), [2]int{1, 1}},
		{"syrk s LN 6x4", one(OpDesc{Kind: OpSYRK, Uplo: matrix.Lower, Alpha: 1}, f32(6, 4), f32(6, 6)), [2]int{0, 4}},
		{"syrk d UT 5x8", one(OpDesc{Kind: OpSYRK, Uplo: matrix.Upper, TransA: matrix.Transpose, Alpha: 1}, f64(8, 5), f64(5, 5)), [2]int{0, 2}},
		{"lu s 5", one(OpDesc{Kind: OpLU, Workers: 1}, dom(vec.S, 5)), [2]int{1, 1}},
		{"cholesky d 6", one(OpDesc{Kind: OpCholesky, Workers: 1}, dom(vec.D, 6)), [2]int{1, 2}},
		{"lupiv s 7", lupiv(dom(vec.S, 7)), [2]int{1, 1}},
		{"chain gemm+trsm+trsm d 8", []ChainStage{
			stage(OpDesc{Kind: OpGEMM, Alpha: 1}, f64(8, 8), f64(8, 8), c),
			stage(OpDesc{Kind: OpTRSM, Uplo: matrix.Lower, Diag: matrix.Unit, Alpha: 1}, l, c),
			stage(OpDesc{Kind: OpTRSM, Uplo: matrix.Upper, Alpha: 1}, u, c),
		}, [2]int{0, 0}},
		{"chain lu+trsm+trsm d 6", []ChainStage{
			stage(OpDesc{Kind: OpLU, Workers: 1}, fa),
			stage(OpDesc{Kind: OpTRSM, Uplo: matrix.Lower, Diag: matrix.Unit, Alpha: 1}, fa, fb),
			stage(OpDesc{Kind: OpTRSM, Uplo: matrix.Upper, Alpha: 1}, fa, fb),
		}, [2]int{1, 2}},
		{"gemm s 6 C=A", one(OpDesc{Kind: OpGEMM, Alpha: 1, Beta: 1}, sq, f32(6, 6), sq), [2]int{1, 2}},
	}
	sets := [2]*Set{NewSet(core.DefaultTuning(), 2, QueueConfig{}), NewSet(core.DefaultTuning(), 5, QueueConfig{})}
	for _, l := range lists {
		for j, s := range sets {
			before := s.Stats().Shards
			if err := s.Run(context.Background(), l.stages, Call{}); err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
			home := -1
			for i, sh := range s.Stats().Shards {
				if sh.Routed == before[i].Routed+1 {
					home = i
				}
			}
			if home != l.home[j] {
				t.Errorf("%s on %d shards homes on shard %d, want %d", l.name, s.Shards(), home, l.home[j])
			}
		}
	}
}

// triCompact builds a batch of well-conditioned lower/upper-usable
// triangular operands: random with a dominant diagonal.
func triCompact(rng *rand.Rand, count, n int) *layout.Compact[float32] {
	b := matrix.NewBatch[float32](count, n, n)
	matrix.Fill(rng, b.Data)
	for m := 0; m < count; m++ {
		mat := b.Mat(m)
		for i := 0; i < n; i++ {
			mat.Set(i, i, 4+rng.Float32())
		}
	}
	return layout.FromBatch(vec.S, b)
}
