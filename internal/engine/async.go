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
//     the drained batch by the identity record each request was
//     validated into (per stage: the plan key without its count bucket,
//     the operand alias pattern, the scalars the op reads and the worker
//     request) and executes each bundle as ONE fused dispatch over the
//     concatenated super-batches — one plan resolution, one worker-pool
//     round-trip for N requests. A request is a stage list like a Run
//     call: single ops and chains share the queue, the coalescer, the
//     fuser and the span finisher.
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
	"slices"
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

// DefaultQueueCapacity bounds the per-engine submission queue unless
// QueueConfig.Capacity sets another bound.
const DefaultQueueCapacity = 1024

// QueueConfig is an engine's async queue policy, fixed when the engine
// is built. The zero value is the default: a DefaultQueueCapacity
// bound, deadline-ordered drain and no batch window.
type QueueConfig struct {
	// Capacity bounds the queued requests (values below 1 mean
	// DefaultQueueCapacity); a Submit beyond it fails with ErrQueueFull.
	Capacity int
	// FIFO executes each drained batch's bundles in arrival order. By
	// default they run earliest context deadline first, Call.Priority
	// breaking ties, so a tight-deadline request never waits behind a
	// loose bundle that merely arrived earlier.
	FIFO bool
	// Window is the max-batch-window: how long the dispatcher holds a
	// drain open after the batch's first request, trading queue latency
	// for larger fused bundles (and bursts landing in one ordered batch).
	// Zero or less drains only what already accumulated.
	Window time.Duration
}

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

// asyncReq is one queued submission: a stage list with its identity
// record and call envelope. One-stage lists live inline in one, so a
// single-op submission costs no stage-slice allocation.
type asyncReq struct {
	ctx    context.Context
	stages []ChainStage
	one    [1]ChainStage
	id     listID
	call   Call
	fut    *Future

	// hash buckets the request (bucketHash); coalescesWith confirms.
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
// the queue policy, the dispatcher bootstrap and the serving counters.
type submitQueue struct {
	startOnce sync.Once
	ch        chan *asyncReq // sized at construction
	busy      atomic.Bool    // a dispatch (inline or dispatcher) is in flight

	// fifo and window are the QueueConfig policy (window clamped at 0).
	fifo   bool
	window time.Duration

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
	// taken. nil on a one-shard set — its dispatcher blocks on the queue
	// with no polling.
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
	// how many sibling-queued requests it executed. Zero on a one-shard
	// set.
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
	// deadline (a Set builds its shards with one QueueConfig).
	s.EDF = s.EDF && o.EDF
	s.Wait.Add(o.Wait)
}

func (q *submitQueue) snapshot() QueueStats {
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
		Depth:          len(q.ch) + int(q.inflight.Load()),
		Capacity:       cap(q.ch),
		DepthHighWater: int(q.depthHW.Load()),
		Wait:           q.waitHist.Snapshot(),
		EDF:            !q.fifo,
		Window:         q.window,
	}
}

// QueueStats returns only the submission-queue slice of Stats. Unlike
// Stats it snapshots no shape series or cache maps, so a serving tier
// can consult it per admission decision.
func (e *Engine) QueueStats() QueueStats { return e.queue.snapshot() }

// init sizes the queue and fixes its policy before the engine is
// shared.
func (q *submitQueue) init(qc QueueConfig) {
	if qc.Capacity < 1 {
		qc.Capacity = DefaultQueueCapacity
	}
	q.ch = make(chan *asyncReq, qc.Capacity)
	q.fifo, q.window = qc.FIFO, max(qc.Window, 0)
}

// resetWindow clears the windowed monitoring state: the queue-depth
// high-water mark and the queue-wait histogram. Lifetime counters
// (submitted, dispatches, ...) are untouched.
func (q *submitQueue) resetWindow() {
	q.depthHW.Store(0)
	q.waitHist.Reset()
}

// ResetShapeStats zeroes the engine's windowed observability state: the
// per-shape series, the queue-depth high-water mark and the queue-wait
// histogram — so windowed monitoring after a reset reports only
// post-reset maxima.
func (e *Engine) ResetShapeStats() {
	e.obs.Reset()
	e.queue.resetWindow()
}

// start lazily launches the dispatcher goroutine.
func (q *submitQueue) start(e *Engine) {
	q.startOnce.Do(func() { go e.dispatchLoop() })
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
	var id listID
	keyOf(&id, stages)
	r, err := e.request(ctx, stages, &id, call)
	if err != nil {
		return nil, err
	}
	if !e.admit(r) {
		return nil, e.reject(r)
	}
	return r.fut, nil
}

// request builds a submission and opens its span (start = submission
// time, so queued requests attribute the gap to PhaseQueueWait). A
// context already done returns its error and no request.
func (e *Engine) request(ctx context.Context, stages []ChainStage, id *listID, call Call) (*asyncReq, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &asyncReq{ctx: ctx, id: *id, call: call, fut: newFuture()}
	if len(stages) == 1 {
		r.one[0] = stages[0]
		r.stages = r.one[:]
	} else {
		r.stages = append([]ChainStage(nil), stages...)
	}
	r.deadline, r.hasDL = ctx.Deadline()
	r.sp = e.startSpan(&call)
	if r.sp != nil && r.hasDL {
		r.sp.Deadline = r.deadline.Sub(r.sp.Start)
	}
	return r, nil
}

// admit runs r on the calling goroutine when the queue is idle, else
// queues it for the dispatcher. It reports false, leaving r untouched
// and its span open, when the queue is full.
func (e *Engine) admit(r *asyncReq) bool {
	q := &e.queue
	q.start(e)
	// Idle fast path: nothing queued and no dispatch in flight — run on
	// the submitting goroutine so a lone caller pays no queue round-trip.
	if len(q.ch) == 0 && q.busy.CompareAndSwap(false, true) {
		q.submitted.Add(1)
		q.inline.Add(1)
		err := e.exec(r.ctx, r.stages, &r.id, r.sp, true)
		q.busy.Store(false)
		e.finish(r, err)
		return true
	}
	r.hash = r.bucketHash()
	r.enq = e.obs.Now()
	select {
	case q.ch <- r:
		q.submitted.Add(1)
		// Pending = buffered + the dispatcher's current batch. The request
		// just sent may already be in the dispatcher's hands (direct
		// handoff empties the buffer before inflight is stamped), so the
		// floor is 1: at this instant at least our own request is pending.
		storeMax(&q.depthHW, max(len(q.ch)+int(q.inflight.Load()), 1))
		return true
	default:
		return false
	}
}

// reject refuses r for a full queue: the one Rejected count, and its
// span finished with the typed ErrQueueFull.
func (e *Engine) reject(r *asyncReq) error {
	q := &e.queue
	q.rejected.Add(1)
	err := fmt.Errorf("iatf: %s: %w (capacity %d)", opName(r.stages), ErrQueueFull, cap(q.ch))
	if r.sp != nil {
		r.sp.Op = opName(r.stages)
	}
	e.obs.FinishSpan(r.sp, err, r.call.Sink)
	return err
}

// finish completes a request that executed on its own: its span, then
// its future, with the error shaped for its call.
func (e *Engine) finish(r *asyncReq, err error) {
	err = r.call.result(r.stages, err)
	e.obs.FinishSpan(r.sp, err, r.call.Sink)
	r.fut.resolve(err)
}

// storeMax raises v to n (CAS-max).
func storeMax(v *atomic.Int64, n int) {
	for {
		old := v.Load()
		if int64(n) <= old || v.CompareAndSwap(old, int64(n)) {
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
		if q.window > 0 {
			wt := time.NewTimer(q.window)
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

// bucketHash folds a request's record (whose key identities leave out
// the count bucket) and each stage's fuseArgs.
func (r *asyncReq) bucketHash() uint64 {
	h := r.id.fold(mix64(0xcbf29ce484222325, uint64(len(r.stages))))
	for i := range r.id.entries() {
		for _, v := range fuseArgs(&r.stages[i].Op) {
			h = mix64(h, v)
		}
	}
	return h
}

// coalescesWith reports whether r may ride lead's fused dispatch: both
// records are valid and factor nowhere (fused padding lanes would fail
// an info scan), they match but for the count bucket, and so do the
// fuseArgs.
func (r *asyncReq) coalescesWith(lead *asyncReq) bool {
	a, b := r.id.entries(), lead.id.entries()
	if r.id.err != nil || lead.id.err != nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		ka, kb := a[i].key, b[i].key
		ka.countBucket = kb.countBucket
		if isFactor(ka.kind) || ka != kb || a[i].alias != b[i].alias ||
			fuseArgs(&r.stages[i].Op) != fuseArgs(&lead.stages[i].Op) {
			return false
		}
	}
	return true
}

// fuseArgs is what a fused dispatch applies from its lead's op to every
// rider: the worker request and the bits (+0 ≠ −0) of the scalars the op
// reads — Alpha, and Beta for GEMM and SYRK.
func fuseArgs(op *OpDesc) [5]uint64 {
	a := [5]uint64{math.Float64bits(real(op.Alpha)), math.Float64bits(imag(op.Alpha)), 0, 0, uint64(int64(op.Workers))}
	if op.Kind == OpGEMM || op.Kind == OpSYRK {
		a[2], a[3] = math.Float64bits(real(op.Beta)), math.Float64bits(imag(op.Beta))
	}
	return a
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
	if !e.queue.fifo && len(order) > 1 {
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
		r.sp.Phases[obs.PhaseQueueWait] = e.obs.Now().Sub(r.enq)
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
	now := e.obs.Now()
	for _, r := range reqs {
		wait := now.Sub(r.enq)
		q.waitHist.Observe(wait)
		if r.sp != nil {
			r.sp.Phases[obs.PhaseQueueWait] += wait
		}
	}
	// Partition in place: the riders that coalesce with the lead first.
	n := 1
	for i := 1; i < len(reqs); i++ {
		if reqs[i].coalescesWith(reqs[0]) {
			reqs[n], reqs[i] = reqs[i], reqs[n]
			n++
		}
	}
	solo := reqs
	if n > 1 {
		fused := reqs[:n]
		solo = reqs[n:]
		q.coalesced.Add(uint64(n - 1))
		storeMax(&q.maxFused, n)
		err := e.execFused(fused)
		for _, r := range fused {
			r.fut.resolve(r.call.result(r.stages, err))
		}
	}
	for _, r := range solo {
		e.finish(r, e.exec(r.ctx, r.stages, &r.id, r.sp, true))
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
	t0 := e.clock(parent)
	// Each distinct compact is concatenated once, at its first slot (the
	// record's alias); every slot sharing it gets the same fused operand.
	fused := make([]Operand, 3*len(lead.stages))
	fstages := make([]ChainStage, len(lead.stages))
	for i := range fstages {
		fstages[i] = lead.stages[i]
		for s := 0; s < fstages[i].NOps; s++ {
			a := int(lead.id.entries()[i].alias[s])
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
	e.obs.Mark(parent, obs.PhaseFuse, t0)
	// The fused list's record is the lead's at the fused count bucket, so
	// it resolves (and caches) its own plan there. Auto-prepack is off:
	// the fused compacts are throwaways, and packing them would churn the
	// cache.
	fid, bucket := lead.id, countBucket(fstages[0].Ops[0].count())
	fid.more = slices.Clone(fid.more)
	ids := fid.entries()
	for i := range ids {
		ids[i].key.countBucket = bucket
	}
	err := e.exec(context.Background(), fstages, &fid, parent, false)
	if err == nil {
		t0 = e.clock(parent)
		w := written(lead.id.entries())
		for a := range 3 * len(lead.stages) {
			if !w.has(int16(a)) {
				continue
			}
			if f := fused[a]; f.F32 != nil {
				scatterCompacts(f.F32, parts[float32](reqs, a/3, a%3))
			} else {
				scatterCompacts(f.F64, parts[float64](reqs, a/3, a%3))
			}
		}
		e.obs.Mark(parent, obs.PhaseScatter, t0)
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
		sp.Count = r.stages[0].Ops[0].count()
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
