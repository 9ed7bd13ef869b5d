// Async submission front-end: a bounded queue between many concurrent
// callers and the engine's one stage executor.
//
//   - Submit enqueues a request on a bounded per-engine queue and
//     returns a Future. A lazily started dispatcher goroutine drains
//     whatever accumulated while the previous request ran, orders the
//     drained batch earliest deadline first and runs each request on its
//     own through the stage executor, exactly as Run would. A request is
//     a stage list like a Run call: single ops and chains share the
//     queue, the executor and the span finisher.
//   - When the queue is idle the submitting goroutine executes
//     synchronously instead (the idle fast path), so single-caller
//     latency is identical to a direct Run call.
//   - Requests carry a context.Context: a request whose context is
//     cancelled while queued (or at any point before it executes)
//     resolves with ctx.Err() without executing. A full queue rejects
//     the submission with a typed ErrQueueFull — backpressure instead of
//     unbounded memory growth under overload.
//
// Requests are never merged. The compact layout already fills every SIMD
// lane inside one request and the Batch Counter sizes each super-batch
// to L1, so concatenating requests would add copies, not locality.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iatf/internal/obs"
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
	// FIFO executes each drained batch in arrival order. By default it
	// runs earliest context deadline first, Call.Priority breaking ties,
	// so a tight-deadline request never waits behind a loose one that
	// merely arrived earlier.
	FIFO bool
	// Window is the max-batch-window: how long the dispatcher holds a
	// drain open after the batch's first request, trading queue latency
	// for a burst landing in one deadline-ordered batch. Zero or less
	// drains only what already accumulated.
	Window time.Duration
}

// Future is the completion handle of one submitted request. It resolves
// exactly once: with the execution error (nil on success) or the
// request's ctx.Err() if it was cancelled before executing.
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
	cancelled  atomic.Uint64
	rejected   atomic.Uint64

	// inflight counts the requests the dispatcher has drained and not yet
	// finished or cancelled: runBatch takes each off as it resolves it.
	// len(ch) alone goes to zero the instant a batch is drained even
	// though every request in it is still pending — admission control
	// reading only the channel length would see an "idle" queue in the
	// middle of a 6ms backlog. Depth reports len(ch) + inflight.
	inflight atomic.Int64

	// depthHW is the monotonic queue-depth high-water mark, recorded at
	// enqueue time — Depth alone only samples whatever is pending at
	// snapshot time, which hides bursts that drained before the scrape.
	depthHW atomic.Int64
	// waitHist is the queue-wait distribution: enqueue to execution
	// start, for every queued request that executed (inline fast-path
	// submissions skip the queue and are not observed).
	waitHist obs.Hist

	// testHook, when set before the first Submit, runs on the dispatcher
	// goroutine after a batch is drained and before it executes — tests
	// use it to hold the dispatcher so queue-full, cancellation and
	// batch ordering become deterministic.
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
//
// At quiescence Submitted == Inline + Dispatches + Cancelled.
type QueueStats struct {
	Submitted  uint64 // requests accepted by Submit
	Inline     uint64 // idle fast-path submissions executed synchronously
	Dispatches uint64 // queued requests the dispatcher executed
	Cancelled  uint64 // requests resolved with ctx.Err() without executing
	Rejected   uint64 // submissions refused with ErrQueueFull
	Depth      int    // requests pending: queued plus those of the drained batch not yet resolved
	Capacity   int    // queue bound

	// Coalesced and MaxFused always read 0: the queue runs every request
	// on its own. They remain for readers that still report them.
	Coalesced uint64
	MaxFused  int

	// StolenBatches/StolenReqs count work-stealing on the thief side: how
	// often this shard's dispatcher ran dry and pulled from a sibling, and
	// how many sibling-queued requests it executed. Zero on a one-shard
	// set.
	StolenBatches uint64
	StolenReqs    uint64

	// DepthHighWater is the largest queue depth ever observed at enqueue
	// time (monotonic; survives the burst that caused it).
	DepthHighWater int
	// Wait is the queue-wait distribution: enqueue to execution start.
	Wait obs.HistSnapshot

	// EDF reports whether deadline-ordered dispatch is enabled (the
	// default); Window is the configured max-batch-window.
	EDF    bool
	Window time.Duration
}

// Add accumulates another queue's counters into s — the EngineSet
// aggregate. Depth, capacity and counters sum; the high-water mark takes
// the max (a per-shard extremum, not additive); wait histograms merge
// bucket-wise.
func (s *QueueStats) Add(o QueueStats) {
	s.Submitted += o.Submitted
	s.Inline += o.Inline
	s.Dispatches += o.Dispatches
	s.Cancelled += o.Cancelled
	s.Rejected += o.Rejected
	s.StolenBatches += o.StolenBatches
	s.StolenReqs += o.StolenReqs
	s.Depth += o.Depth
	s.Capacity += o.Capacity
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
		Cancelled:      q.cancelled.Load(),
		Rejected:       q.rejected.Load(),
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
// list is its op; a longer list occupies one slot and executes
// atomically. If the queue is idle the request runs synchronously on the
// caller (same latency as Run); otherwise it joins the queue and the
// dispatcher runs it on its own, in deadline order within its drained
// batch. Validation failures resolve the future. A full queue returns
// ErrQueueFull and a context already done returns ctx.Err(), both with
// a nil Future.
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
		err := e.exec(r.ctx, r.stages, &r.id, r.sp)
		q.busy.Store(false)
		e.finish(r, err)
		return true
	}
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

// finish completes an executed request: its span, then its future, with
// the error shaped for its call.
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
		q.busy.Store(false)
		// Drop request references so resolved futures and their operands
		// are collectible while the dispatcher idles.
		for i := range batch {
			batch[i] = nil
		}
	}
}

// runBatch resolves the requests whose context died in the queue, orders
// the rest earliest deadline first unless the queue is FIFO, and runs
// each on its own. Each request leaves the queue's inflight count as it
// resolves, before its span sink and future see it.
func (e *Engine) runBatch(batch []*asyncReq) {
	q := &e.queue
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			q.inflight.Add(-1)
			e.cancel(r, err)
			continue
		}
		live = append(live, r)
	}
	if !q.fifo {
		slices.SortStableFunc(live, byDeadline)
	}
	for _, r := range live {
		// A request late in the batch waited behind every earlier one, so
		// a deadline that was live at the dequeue check may be dead now.
		if err := r.ctx.Err(); err != nil {
			q.inflight.Add(-1)
			e.cancel(r, err)
			continue
		}
		wait := e.obs.Now().Sub(r.enq)
		q.waitHist.Observe(wait)
		if r.sp != nil {
			r.sp.Phases[obs.PhaseQueueWait] += wait
		}
		q.dispatches.Add(1)
		err := e.exec(r.ctx, r.stages, &r.id, r.sp)
		q.inflight.Add(-1)
		e.finish(r, err)
	}
}

// byDeadline is the EDF order: requests with a context deadline before
// those without, earlier deadlines first, then higher Call.Priority; the
// stable sort keeps arrival order among the rest.
func byDeadline(a, b *asyncReq) int {
	switch {
	case a.hasDL != b.hasDL:
		if a.hasDL {
			return -1
		}
		return 1
	case a.hasDL && !a.deadline.Equal(b.deadline):
		return a.deadline.Compare(b.deadline)
	}
	return cmp.Compare(b.call.Priority, a.call.Priority)
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
