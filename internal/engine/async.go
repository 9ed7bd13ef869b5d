// Async submission front-end: the dynamic-batching layer between many
// concurrent callers and the engine's single dispatch path. IATF's
// run-time stage amortizes best when identical descriptors are batched;
// under serving traffic the batches arrive one small request at a time
// from many goroutines, so the engine coalesces them back together at
// run time the way inference servers do:
//
//   - Submit enqueues a request on a bounded per-engine queue and
//     returns a Future. A lazily started dispatcher goroutine drains
//     whatever accumulated while the previous dispatch ran, partitions
//     the drained batch by problem identity (per stage: op, dtype,
//     modes, scalars, workers, dims and the operand alias pattern —
//     never the batch count) and executes each bundle as ONE fused
//     dispatch over the concatenated super-batches — one validation, one
//     plan resolution, one worker-pool round-trip for N requests. A
//     request is a stage list like a Run call: single ops and chains
//     share the queue, the coalescer, the fuser and the span finisher.
//   - When the queue is idle the submitting goroutine executes
//     synchronously instead (the idle fast path), so single-caller
//     latency is identical to a direct Run call.
//   - Requests carry a context.Context: a request whose context is
//     cancelled while queued (or at any point before its bundle
//     executes) resolves with ctx.Err() without executing. A full queue
//     rejects the submission with a typed ErrQueueFull — backpressure
//     instead of unbounded memory growth under overload.
//
// Fusing is group-exact: compact storage is a sequence of independent
// P-matrix interleave groups, so concatenating the group data of N
// same-shape batches yields one valid larger batch and the kernels
// process exactly the same groups they would have processed in N serial
// calls — fused results are bit-identical (the bucketed-plan parity
// property from the plan cache covers the differing batch count).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iatf/internal/layout"
	"iatf/internal/obs"
	"iatf/internal/vec"
)

// ErrQueueFull is returned by Submit when the engine's bounded
// submission queue is at capacity — the overload backpressure signal.
// Callers should shed load or retry with a deadline.
var ErrQueueFull = errors.New("submission queue full")

// A full queue is a shed, not an error, in the per-tenant SLO ledger:
// it consumes the tenant's error budget the same way an admission-
// control rejection does.
func init() { obs.RegisterShedError(ErrQueueFull) }

// ErrQueueStarted is returned by SetQueueCapacity once the dispatcher has
// started (i.e. after the engine's first Submit): the live queue channel
// cannot be resized, so a late call is rejected instead of silently
// ignored or racing the running dispatcher.
var ErrQueueStarted = errors.New("submission queue already started")

// DefaultQueueCapacity bounds the per-engine submission queue unless
// SetQueueCapacity overrides it before the first Submit.
const DefaultQueueCapacity = 1024

// Future is the completion handle of one submitted request. It resolves
// exactly once: with the dispatch error (nil on success), the request's
// ctx.Err() if it was cancelled before executing, or the fused bundle's
// error.
type Future struct {
	done chan struct{}
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (f *Future) resolve(err error) {
	f.err = err
	close(f.done)
}

// Done returns a channel closed when the request has completed (or been
// rejected/cancelled).
func (f *Future) Done() <-chan struct{} { return f.done }

// Err returns the request's outcome. It blocks until the future
// resolves.
func (f *Future) Err() error {
	<-f.done
	return f.err
}

// Wait blocks until the request completes or ctx is done, whichever
// comes first, and returns the corresponding error. Abandoning the wait
// does not cancel the request: the submission's own context governs
// execution.
func (f *Future) Wait(ctx context.Context) error {
	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// asyncReq is one queued submission: a stage list with its call
// envelope. One-stage lists live inline in one, so a single-op
// submission costs no stage-slice allocation.
type asyncReq struct {
	ctx    context.Context
	stages []ChainStage
	one    [1]ChainStage
	call   Call
	fut    *Future

	// hash is the coalescing identity (see fuseHash); requests bucket by
	// it and fuse only after sameIdentity confirms the match.
	hash uint64

	// deadline/hasDL cache ctx.Deadline() at submission time so the EDF
	// pass never re-walks the context chain on the dispatcher.
	deadline time.Time
	hasDL    bool

	enq time.Time // when the request joined the queue (zero on the inline path)
	sp  *obs.Span // lifecycle span; nil when tracing is off
}

// opName names a stage list for spans and errors: its op, or "CHAIN".
func opName(stages []ChainStage) string {
	if len(stages) == 1 {
		return stages[0].Op.Kind.String()
	}
	return "CHAIN"
}

// submitQueue is the per-engine async state: the bounded request channel,
// the dispatcher bootstrap and the serving counters.
type submitQueue struct {
	startOnce sync.Once
	mu        sync.Mutex // guards ch/capacity before the dispatcher starts
	ch        chan *asyncReq
	capacity  int
	busy      atomic.Bool // a dispatch (inline or dispatcher) is in flight

	// fifo disables the EDF pass (SetEDF(false)): drained bundles execute
	// in arrival order, the pre-PR-7 behavior. Default false = EDF on.
	fifo atomic.Bool
	// windowNs is the max-batch-window: after receiving the first request
	// of a batch the dispatcher holds the drain open for this long, so a
	// burst — and any tight-deadline request inside it — lands in one
	// drained batch for the EDF pass to order. 0 (default) drains only
	// what already accumulated.
	windowNs atomic.Int64

	submitted  atomic.Uint64
	inline     atomic.Uint64
	dispatches atomic.Uint64
	coalesced  atomic.Uint64
	cancelled  atomic.Uint64
	rejected   atomic.Uint64
	maxFused   atomic.Int64

	// inflight is the size of the batch the dispatcher is currently
	// executing. len(ch) alone goes to zero the instant a batch is drained
	// even though every request in it is still pending — admission control
	// reading only the channel length would see an "idle" queue in the
	// middle of a 6ms backlog. Depth reports len(ch) + inflight.
	inflight atomic.Int64

	// depthHW is the monotonic queue-depth high-water mark, recorded at
	// enqueue time — Depth alone only samples whatever is pending at
	// snapshot time, which hides bursts that drained before the scrape.
	depthHW atomic.Int64
	// waitHist is the queue-wait distribution: enqueue to bundle start,
	// for every queued request (inline fast-path submissions skip the
	// queue and are not observed).
	waitHist obs.Hist

	// testHook, when set before the first Submit, runs on the dispatcher
	// goroutine after a batch is drained and before it executes — tests
	// use it to hold the dispatcher so queue-full, cancellation and
	// coalescing become deterministic.
	testHook func(drained int)

	// steal, installed by an EngineSet of two or more shards before the
	// dispatcher starts, lets this engine's dispatcher pull queued
	// requests from a sibling shard when its own queue runs dry. It
	// appends the stolen requests to *batch and returns how many were
	// taken. nil for solo engines and one-shard sets — their dispatcher
	// blocks on the queue with no polling.
	steal func(batch *[]*asyncReq) int

	stolenBatches atomic.Uint64 // steal attempts that took work (thief side)
	stolenReqs    atomic.Uint64 // requests executed here but queued on a sibling
}

// QueueStats is a snapshot of the async submission layer's counters.
type QueueStats struct {
	Submitted  uint64 // requests accepted by Submit
	Inline     uint64 // idle fast-path submissions executed synchronously
	Dispatches uint64 // dispatch executions (fused bundles count once)
	Coalesced  uint64 // requests that rode along in a fused dispatch beyond its first
	Cancelled  uint64 // requests resolved with ctx.Err() without executing
	Rejected   uint64 // submissions refused with ErrQueueFull
	MaxFused   int    // largest fused bundle observed
	Depth      int    // requests pending: queued plus the batch being executed
	Capacity   int    // queue bound

	// StolenBatches/StolenReqs count work-stealing on the thief side: how
	// often this shard's dispatcher ran dry and pulled from a sibling, and
	// how many sibling-queued requests it executed. Zero for solo engines.
	StolenBatches uint64
	StolenReqs    uint64

	// DepthHighWater is the largest queue depth ever observed at enqueue
	// time (monotonic; survives the burst that caused it).
	DepthHighWater int
	// Wait is the queue-wait distribution: enqueue to bundle start.
	Wait obs.HistSnapshot

	// EDF reports whether deadline-ordered dispatch is enabled (the
	// default); Window is the configured max-batch-window.
	EDF    bool
	Window time.Duration
}

// Add accumulates another queue's counters into s — the EngineSet
// aggregate. Depth, capacity and counters sum; the high-water mark and
// max-fused take the max (a per-shard extremum, not additive); wait
// histograms merge bucket-wise.
func (s *QueueStats) Add(o QueueStats) {
	s.Submitted += o.Submitted
	s.Inline += o.Inline
	s.Dispatches += o.Dispatches
	s.Coalesced += o.Coalesced
	s.Cancelled += o.Cancelled
	s.Rejected += o.Rejected
	s.StolenBatches += o.StolenBatches
	s.StolenReqs += o.StolenReqs
	s.Depth += o.Depth
	s.Capacity += o.Capacity
	if o.MaxFused > s.MaxFused {
		s.MaxFused = o.MaxFused
	}
	if o.DepthHighWater > s.DepthHighWater {
		s.DepthHighWater = o.DepthHighWater
	}
	if o.Window > s.Window {
		s.Window = o.Window
	}
	// The aggregate claims EDF only when every merged shard orders by
	// deadline (shards are configured uniformly through Set.SetEDF).
	s.EDF = s.EDF && o.EDF
	s.Wait.Add(o.Wait)
}

func (q *submitQueue) snapshot() QueueStats {
	q.mu.Lock()
	depth, capacity := 0, q.capacity
	if q.ch != nil {
		depth, capacity = len(q.ch)+int(q.inflight.Load()), cap(q.ch)
	}
	q.mu.Unlock()
	return QueueStats{
		Submitted:      q.submitted.Load(),
		StolenBatches:  q.stolenBatches.Load(),
		StolenReqs:     q.stolenReqs.Load(),
		Inline:         q.inline.Load(),
		Dispatches:     q.dispatches.Load(),
		Coalesced:      q.coalesced.Load(),
		Cancelled:      q.cancelled.Load(),
		Rejected:       q.rejected.Load(),
		MaxFused:       int(q.maxFused.Load()),
		Depth:          depth,
		Capacity:       capacity,
		DepthHighWater: int(q.depthHW.Load()),
		Wait:           q.waitHist.Snapshot(),
		EDF:            !q.fifo.Load(),
		Window:         time.Duration(q.windowNs.Load()),
	}
}

// QueueStats returns only the submission-queue slice of Stats. Unlike
// Stats it snapshots no shape series or cache maps, so a serving tier
// can consult it per admission decision.
func (e *Engine) QueueStats() QueueStats { return e.queue.snapshot() }

// SetEDF toggles deadline-ordered dispatch. When on (the default) the
// dispatcher executes each drained batch's bundles in earliest-context-
// deadline order, with Call.Priority breaking ties, so a tight-deadline
// request never waits behind a loose bundle that merely arrived earlier.
// When off, bundles execute in arrival order (FIFO). Safe to flip at any
// time; it affects batches drained after the call.
func (e *Engine) SetEDF(on bool) { e.queue.fifo.Store(!on) }

// SetBatchWindow sets the max-batch-window: how long the dispatcher holds
// a drain open after the batch's first request, trading latency (every
// queued request waits up to d longer) for throughput (larger fused
// bundles, and bursts land in one EDF-ordered batch). 0 — the default —
// restores drain-what-accumulated dispatch. Safe to change at any time.
func (e *Engine) SetBatchWindow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.queue.windowNs.Store(int64(d))
}

// SetQueueCapacity bounds the engine's submission queue. The bound can
// only be set before the dispatcher starts — i.e. before the engine's
// first Submit (for Set shards: before the set's first Submit, which
// starts every shard's dispatcher together). A later call returns
// ErrQueueStarted and leaves the live queue untouched: the channel is
// already sized and handed to the dispatcher, so re-applying would race
// in-flight submissions.
func (e *Engine) SetQueueCapacity(n int) error {
	if n < 1 {
		n = 1
	}
	q := &e.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ch != nil {
		return fmt.Errorf("iatf: SetQueueCapacity(%d): %w (capacity %d)", n, ErrQueueStarted, cap(q.ch))
	}
	q.capacity = n
	return nil
}

// resetWindow clears the windowed monitoring state: the queue-depth
// high-water mark and the queue-wait histogram. Lifetime counters
// (submitted, dispatches, ...) are untouched.
func (q *submitQueue) resetWindow() {
	q.depthHW.Store(0)
	q.waitHist.Reset()
}

// ResetShapeStats zeroes the engine's windowed observability state: the
// per-shape series, the SnapshotDelta baseline, the queue-depth
// high-water mark and the queue-wait histogram — so windowed monitoring
// after a reset reports only post-reset maxima.
func (e *Engine) ResetShapeStats() {
	e.obs.Reset()
	e.queue.resetWindow()
}

// start lazily creates the queue channel and dispatcher goroutine.
func (q *submitQueue) start(e *Engine) {
	q.startOnce.Do(func() {
		q.mu.Lock()
		if q.capacity <= 0 {
			q.capacity = DefaultQueueCapacity
		}
		q.ch = make(chan *asyncReq, q.capacity)
		q.mu.Unlock()
		go e.dispatchLoop()
	})
}

// Submit enqueues a stage list and returns its Future; the operands must
// not be mutated until it resolves (the list itself is copied). A one-stage
// list is its op; a longer list is one queue identity that occupies one
// slot, coalesces only with identical chains and executes atomically.
// If the queue is idle the request runs synchronously on the caller
// (same latency as Run); otherwise it joins the queue, where the
// dispatcher may coalesce it with concurrent same-identity requests
// into one fused dispatch. Validation failures resolve the future. A
// full queue returns ErrQueueFull and a context already done returns
// ctx.Err(), both with a nil Future.
func (e *Engine) Submit(ctx context.Context, stages []ChainStage, call Call) (*Future, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := &e.queue
	q.start(e)
	r := &asyncReq{ctx: ctx, call: call, fut: newFuture()}
	if len(stages) == 1 {
		r.one[0] = stages[0]
		r.stages = r.one[:]
	} else {
		r.stages = append([]ChainStage(nil), stages...)
	}
	r.deadline, r.hasDL = ctx.Deadline()
	// Span start = submission time, so queued requests attribute the gap
	// to PhaseQueueWait.
	r.sp = e.startSpan(&call)
	if r.sp != nil && r.hasDL {
		r.sp.Deadline = r.deadline.Sub(r.sp.Start)
	}
	// Idle fast path: nothing queued and no dispatch in flight — run on
	// the submitting goroutine so a lone caller pays no queue round-trip.
	if len(q.ch) == 0 && q.busy.CompareAndSwap(false, true) {
		q.submitted.Add(1)
		q.inline.Add(1)
		err := e.exec(ctx, r.stages, r.sp, true)
		q.busy.Store(false)
		e.finish(r, err)
		return r.fut, nil
	}
	r.hash = fuseHash(r.stages)
	r.enq = time.Now()
	select {
	case q.ch <- r:
		q.submitted.Add(1)
		// Pending = buffered + the dispatcher's current batch. The request
		// just sent may already be in the dispatcher's hands (direct
		// handoff empties the buffer before inflight is stamped), so the
		// floor is 1: at this instant at least our own request is pending.
		q.noteDepth(max(len(q.ch)+int(q.inflight.Load()), 1))
		return r.fut, nil
	default:
		q.rejected.Add(1)
		err := fmt.Errorf("iatf: %s: %w (capacity %d)", opName(stages), ErrQueueFull, cap(q.ch))
		if r.sp != nil {
			r.sp.Op = opName(stages)
		}
		e.obs.FinishSpan(r.sp, err, call.Sink)
		return nil, err
	}
}

// finish completes a request that executed on its own: its span, then
// its future, with the error shaped for its call.
func (e *Engine) finish(r *asyncReq, err error) {
	err = r.call.result(r.stages, err)
	e.obs.FinishSpan(r.sp, err, r.call.Sink)
	r.fut.resolve(err)
}

// noteDepth raises the queue-depth high-water mark to depth (CAS-max).
func (q *submitQueue) noteDepth(depth int) {
	for {
		old := q.depthHW.Load()
		if int64(depth) <= old || q.depthHW.CompareAndSwap(old, int64(depth)) {
			return
		}
	}
}

// stealPollInterval is how often an idle set-attached dispatcher checks
// sibling queues for stealable work. The poll itself is allocation-free
// (a reused timer and batch slice), so a fine interval keeps steal
// latency low without disturbing the warm-path allocation budget.
const stealPollInterval = 200 * time.Microsecond

// dispatchLoop is the per-engine dispatcher: block for one request,
// drain everything else that accumulated, execute the batch. When the
// engine is a shard with siblings (q.steal != nil) the wait is a timed poll
// instead of a plain block: an idle dispatcher periodically pulls queued
// requests from the deepest sibling queue and executes them here —
// bounded work stealing, so one hot shard cannot serialize the set while
// its siblings idle.
func (e *Engine) dispatchLoop() {
	q := &e.queue
	var batch []*asyncReq
	var timer *time.Timer
	if q.steal != nil {
		timer = time.NewTimer(stealPollInterval)
		defer timer.Stop()
	}
	for {
		var r *asyncReq
		if timer == nil {
			var ok bool
			if r, ok = <-q.ch; !ok {
				return
			}
		} else {
			select {
			case r2, ok := <-q.ch:
				if !ok {
					return
				}
				r = r2
			case <-timer.C:
				timer.Reset(stealPollInterval)
				// Only steal while genuinely idle: own queue empty and no
				// inline dispatch in flight.
				if len(q.ch) != 0 || q.busy.Load() {
					continue
				}
				batch = batch[:0]
				if n := q.steal(&batch); n > 0 {
					q.stolenBatches.Add(1)
					q.stolenReqs.Add(uint64(n))
					q.busy.Store(true)
					q.inflight.Store(int64(len(batch)))
					e.runBatch(batch)
					q.inflight.Store(0)
					q.busy.Store(false)
					for i := range batch {
						batch[i] = nil
					}
				}
				continue
			}
		}
		q.busy.Store(true)
		batch = append(batch[:0], r)
		// inflight tracks the batch as it accumulates, not just while it
		// executes: receiving moves requests out of the channel, and without
		// this the queue would look empty to admission control for the whole
		// window + execution of a deep backlog.
		q.inflight.Store(1)
		// Max-batch-window: hold the drain open so a burst — and any
		// tight-deadline request inside it — lands in ONE drained batch for
		// the EDF pass to order. busy is already set, so submissions during
		// the window skip the inline fast path and join this batch.
		if w := time.Duration(q.windowNs.Load()); w > 0 {
			wt := time.NewTimer(w)
		window:
			for {
				select {
				case r2, ok := <-q.ch:
					if !ok {
						break window
					}
					batch = append(batch, r2)
					q.inflight.Store(int64(len(batch)))
				case <-wt.C:
					break window
				}
			}
			wt.Stop()
		}
	drain:
		for {
			select {
			case r2 := <-q.ch:
				batch = append(batch, r2)
				q.inflight.Store(int64(len(batch)))
			default:
				break drain
			}
		}
		if h := q.testHook; h != nil {
			h(len(batch))
		}
		e.runBatch(batch)
		q.inflight.Store(0)
		q.busy.Store(false)
		// Drop request references so resolved futures and their operands
		// are collectible while the dispatcher idles.
		for i := range batch {
			batch[i] = nil
		}
	}
}

// fuseHash condenses the coalescing identity of a stage list: per stage
// the op descriptor (kind, modes, scalars, workers), the arity and every
// operand's dtype, dimensions and alias pattern. Batch counts are
// excluded — fusing concatenates them, and the fused run resolves its
// plan at the fused count bucket. Allocation-free.
func fuseHash(stages []ChainStage) uint64 {
	h := uint64(0xcbf29ce484222325)
	h = mix64(h, uint64(len(stages)))
	for i := range stages {
		st := &stages[i]
		op := &st.Op
		for _, v := range [...]uint64{uint64(op.Kind), uint64(op.TransA), uint64(op.TransB),
			uint64(op.Side), uint64(op.Uplo), uint64(op.Diag),
			math.Float64bits(real(op.Alpha)), math.Float64bits(imag(op.Alpha)),
			math.Float64bits(real(op.Beta)), math.Float64bits(imag(op.Beta)),
			uint64(int64(op.Workers)), uint64(st.NOps)} {
			h = mix64(h, v)
		}
		for s := 0; s < min(st.NOps, 3); s++ {
			// Malformed operands keep a zero dim signature; they fail
			// validation identically fused or alone.
			if o := st.Ops[s]; o.valid() {
				h = mix64(h, uint64(o.DT))
				h = mix64(h, uint64(o.rows()))
				h = mix64(h, uint64(o.cols()))
			}
			h = mix64(h, uint64(aliasOf(stages, i, s)))
		}
	}
	return h
}

// sameIdentity verifies (not just by hash) that two stage lists share
// the coalescing identity of fuseHash.
func sameIdentity(a, b []ChainStage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].NOps != b[i].NOps {
			return false
		}
		for s := 0; s < min(a[i].NOps, 3); s++ {
			oa, ob := a[i].Ops[s], b[i].Ops[s]
			if oa.valid() != ob.valid() || aliasOf(a, i, s) != aliasOf(b, i, s) {
				return false
			}
			if oa.valid() && (oa.DT != ob.DT || (oa.F32 == nil) != (ob.F32 == nil) ||
				oa.rows() != ob.rows() || oa.cols() != ob.cols()) {
				return false
			}
		}
	}
	return true
}

// fusable reports whether a stage list may ride a fused dispatch: it
// validates, and no stage factors — concatenation promotes each part's
// padding lanes to real matrices of the fused batch, and a factor
// stage's per-matrix info scan would abort the whole bundle on that
// garbage.
func fusable(stages []ChainStage) bool {
	if checkChainLen(len(stages)) != nil {
		return false
	}
	for i := range stages {
		if k := stages[i].Op.Kind; k == OpLU || k == OpCholesky {
			return false
		}
		if _, err := checkChainStage(stages, i); err != nil {
			return false
		}
	}
	return true
}

// runBatch resolves cancelled requests, partitions the rest by
// coalescing identity and executes each bundle — in earliest-deadline-
// first order unless EDF is disabled (then arrival order, the FIFO
// drain).
func (e *Engine) runBatch(batch []*asyncReq) {
	var order []uint64
	buckets := make(map[uint64][]*asyncReq, len(batch))
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			e.cancel(r, err)
			continue
		}
		if _, ok := buckets[r.hash]; !ok {
			order = append(order, r.hash)
		}
		buckets[r.hash] = append(buckets[r.hash], r)
	}
	if !e.queue.fifo.Load() && len(order) > 1 {
		orderByDeadline(order, buckets)
	}
	for _, k := range order {
		e.runBundle(buckets[k])
	}
}

// cancel resolves a request whose context died in the queue, without
// executing it.
func (e *Engine) cancel(r *asyncReq, err error) {
	e.queue.cancelled.Add(1)
	if r.sp != nil {
		r.sp.Op = opName(r.stages)
		r.sp.Phases[obs.PhaseQueueWait] = time.Since(r.enq)
	}
	e.obs.FinishSpan(r.sp, err, r.call.Sink)
	r.fut.resolve(err)
}

// orderByDeadline sorts the bundle execution order EDF-style: bundles
// with a context deadline run before bundles without one, earlier
// deadlines first; the highest Call.Priority in the bundle breaks ties
// (and orders the no-deadline bundles among themselves), and arrival
// order breaks what remains (stable sort). Reordering whole bundles is
// result-neutral: bundles share no operands with each other — only the
// order of independent fused dispatches changes, never their content.
func orderByDeadline(order []uint64, buckets map[uint64][]*asyncReq) {
	type rank struct {
		hasDL bool
		dl    time.Time
		prio  int
	}
	ranks := make(map[uint64]rank, len(order))
	for _, k := range order {
		var rk rank
		for i, r := range buckets[k] {
			if r.hasDL && (!rk.hasDL || r.deadline.Before(rk.dl)) {
				rk.hasDL, rk.dl = true, r.deadline
			}
			if i == 0 || r.call.Priority > rk.prio {
				rk.prio = r.call.Priority
			}
		}
		ranks[k] = rk
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := ranks[order[i]], ranks[order[j]]
		if a.hasDL != b.hasDL {
			return a.hasDL
		}
		if a.hasDL && !a.dl.Equal(b.dl) {
			return a.dl.Before(b.dl)
		}
		return a.prio > b.prio
	})
}

// runBundle executes one same-identity bundle: the riders that fuse
// with its lead run as one fused dispatch, everything else (a lone
// request, an invalid or factor-bearing request, a hash-collision rider)
// runs on its own. Queue wait is stamped here — at bundle start, not
// drain time — so a request's recorded phases sum to its observed
// end-to-end latency even when earlier bundles of the same drained batch
// ran first.
func (e *Engine) runBundle(reqs []*asyncReq) {
	q := &e.queue
	// Fuse-time expiry check: a bundle late in a drained batch waited
	// behind every earlier bundle's execution, so a deadline that was live
	// at the dequeue check may be dead by now. Dead requests resolve with
	// ctx.Err() here, without consuming fused-batch slots (the fused
	// super-batch is built only from the survivors).
	live := reqs[:0]
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			e.cancel(r, err)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	reqs = live
	q.dispatches.Add(1)
	now := time.Now()
	for _, r := range reqs {
		wait := now.Sub(r.enq)
		q.waitHist.Observe(wait)
		if r.sp != nil {
			r.sp.Phases[obs.PhaseQueueWait] += wait
		}
	}
	// Partition in place: the lead's fusable same-identity riders first.
	n := 1
	if len(reqs) > 1 && fusable(reqs[0].stages) {
		for i := 1; i < len(reqs); i++ {
			if sameIdentity(reqs[0].stages, reqs[i].stages) && fusable(reqs[i].stages) {
				reqs[n], reqs[i] = reqs[i], reqs[n]
				n++
			}
		}
	}
	solo := reqs
	if n > 1 {
		fused := reqs[:n]
		solo = reqs[n:]
		q.coalesced.Add(uint64(n - 1))
		for {
			old := q.maxFused.Load()
			if int64(n) <= old || q.maxFused.CompareAndSwap(old, int64(n)) {
				break
			}
		}
		err := e.execFused(fused)
		for _, r := range fused {
			r.fut.resolve(r.call.result(r.stages, err))
		}
	}
	for _, r := range solo {
		e.finish(r, e.exec(r.ctx, r.stages, r.sp, true))
	}
}

// execFused concatenates the bundle's operands alias-wise — each
// distinct compact of the lead's stage list becomes one fused compact
// shared by the same slots — executes the fused list once through the
// synchronous path, and scatters every written alias back into each
// request's own storage. Group data is untouched by the concatenation,
// so results are bit-identical to executing the requests serially. On
// error nothing is scattered: the riders' operands are left untouched.
//
// Span emission: the fused dispatch itself carries a parent span
// (Fused = N, phases Fuse/Plan/Pack/Compute/Scatter); each rider's child
// span copies the parent's shared phases alongside its own queue wait
// and links via ParentID, so a slow request is attributable even when it
// executed as one rider of a coalesced dispatch.
func (e *Engine) execFused(reqs []*asyncReq) error {
	lead := reqs[0]
	// The parent span is forced whenever any rider carries a span, so
	// children never lack the dispatch they rode in.
	force := false
	for _, r := range reqs {
		force = force || r.sp != nil
	}
	parent := e.obs.StartSpan(force)
	if parent != nil {
		// The parent carries every traced rider's id, so a trace lookup
		// by any rider surfaces the shared dispatch it rode in.
		for _, r := range reqs {
			if r.call.Trace != "" {
				parent.Riders = append(parent.Riders, r.call.Trace)
			}
		}
	}
	t0 := clock(parent)
	// Each distinct compact is concatenated once, at its first slot
	// (aliasOf); every slot sharing it gets the same fused operand.
	fused := make([]Operand, 3*len(lead.stages))
	fstages := make([]ChainStage, len(lead.stages))
	for i := range fstages {
		fstages[i] = lead.stages[i]
		for s := 0; s < fstages[i].NOps; s++ {
			a := aliasOf(lead.stages, i, s)
			if a == 3*i+s {
				if lead.stages[i].Ops[s].F32 != nil {
					fused[a] = fuseAlias[float32](reqs, i, s)
				} else {
					fused[a] = fuseAlias[float64](reqs, i, s)
				}
			}
			fstages[i].Ops[s] = fused[a]
		}
	}
	parent.Mark(obs.PhaseFuse, t0)
	// The fused list resolves (and caches) its own plan at the fused count
	// bucket. Auto-prepack is off: the fused compacts are throwaways, and
	// packing them would churn the cache.
	err := e.exec(context.Background(), fstages, parent, false)
	if err == nil {
		t0 = clock(parent)
		for a, w := range writtenAliases(lead.stages) {
			if !w {
				continue
			}
			if f := fused[a]; f.F32 != nil {
				scatterCompacts(f.F32, parts[float32](reqs, a/3, a%3))
			} else {
				scatterCompacts(f.F64, parts[float64](reqs, a/3, a%3))
			}
		}
		parent.Mark(obs.PhaseScatter, t0)
	}
	if parent != nil {
		parent.Fused = len(reqs)
		e.finishRiders(parent, reqs, err)
	}
	e.obs.FinishSpan(parent, err, nil)
	return err
}

// finishRiders completes each rider's child span: the parent's
// descriptor and shared phases (fuse through scatter) plus the rider's
// own queue wait and batch count, linked by ParentID. Runs before the
// parent is finished (and recycled), so the copies are safe.
func (e *Engine) finishRiders(parent *obs.Span, reqs []*asyncReq, err error) {
	for _, r := range reqs {
		sp := r.sp
		if sp == nil {
			continue
		}
		sp.ParentID = parent.ID
		sp.Op, sp.DType, sp.Mode = parent.Op, parent.DType, parent.Mode
		sp.M, sp.N, sp.K = parent.M, parent.N, parent.K
		sp.Workers = parent.Workers
		sp.PrepackHits, sp.PrepackBuilds = parent.PrepackHits, parent.PrepackBuilds
		sp.Count = r.stages[0].count()
		for p := obs.PhaseFuse; p < obs.PhaseCount; p++ {
			sp.Phases[p] = parent.Phases[p]
		}
		e.obs.FinishSpan(sp, r.call.result(r.stages, err), r.call.Sink)
	}
}

// parts collects every request's compact at stage i's slot s.
func parts[E vec.Float](reqs []*asyncReq, i, s int) []*layout.Compact[E] {
	out := make([]*layout.Compact[E], len(reqs))
	for j, r := range reqs {
		out[j] = compactOf[E](r.stages[i].Ops[s])
	}
	return out
}

// fuseAlias concatenates stage i's slot s across the bundle into one
// fused operand.
func fuseAlias[E vec.Float](reqs []*asyncReq, i, s int) Operand {
	src := reqs[0].stages[i].Ops[s]
	f := fuseCompacts(src.DT, parts[E](reqs, i, s))
	o := Operand{DT: src.DT}
	if c, ok := any(f).(*layout.Compact[float32]); ok {
		o.F32 = c
	} else {
		o.F64 = any(f).(*layout.Compact[float64])
	}
	return o
}

// fuseCompacts concatenates same-shape compact batches at interleave-
// group granularity. The fused count is totalGroups·P: each part's
// padding lanes stay padding lanes of the fused batch at the same group
// offsets, so kernels compute exactly what they would have per part.
func fuseCompacts[E vec.Float](dt vec.DType, parts []*layout.Compact[E]) *layout.Compact[E] {
	first := parts[0]
	total := 0
	for _, p := range parts {
		total += p.Groups()
	}
	out := layout.NewCompact[E](dt, total*first.P(), first.Rows, first.Cols)
	off := 0
	for _, p := range parts {
		off += copy(out.Data[off:], p.Data)
	}
	return out
}

// scatterCompacts copies the written operand's group ranges back into
// each request's own storage and retires any cached packed images of the
// previous contents.
func scatterCompacts[E vec.Float](fused *layout.Compact[E], parts []*layout.Compact[E]) {
	off := 0
	for _, p := range parts {
		copy(p.Data, fused.Data[off:off+len(p.Data)])
		off += len(p.Data)
		p.Invalidate()
	}
}
