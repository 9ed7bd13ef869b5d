package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iatf"
)

// span is one benchmark-side span around a call the benchmark makes into
// a layer: name, start, end, parent and the op it belongs to.
type span struct {
	id, parent uint64
	op         int
	key        string // serve-small joins by trace id instead of op
	name       string
	start, end time.Time
}

// engineRec is the engine's own lifecycle span of one op, joined through
// iatf.WithSpanSink (or, on serve-small, the server's access log).
type engineRec struct {
	op         int
	key        string
	start, end time.Time
	phases     [6]time.Duration
}

func (e engineRec) dur() time.Duration { return e.end.Sub(e.start) }

// tracer keeps the traced run's spans in memory; they are written out as
// Chrome trace JSON when the run ends. A nil *tracer records nothing, so
// untraced runs pass nil and pay one pointer test per call.
type tracer struct {
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	engine []engineRec
	chrome []iatf.Span // the first keepChrome engine spans, in full
}

// keepChrome bounds the engine spans kept whole for the Chrome trace.
const keepChrome = 4000

func newTracer() *tracer {
	t := &tracer{}
	t.nextID.Store(1 << 40) // above the engine's span ids
	return t
}

// begin opens a span; the returned func closes it.
func (t *tracer) begin(name string, parent uint64, op int) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.nextID.Add(1)
	start := time.Now()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
		t.mu.Unlock()
	}
}

// sink returns the span sink joining the engine span of op, or nil when
// untraced.
func (t *tracer) sink(op int) spanSink {
	if t == nil {
		return nil
	}
	return func(sp *iatf.Span) { t.addEngine(op, sp) }
}

func (t *tracer) addEngine(op int, sp *iatf.Span) {
	rec := engineRec{op: op, start: sp.Start, end: sp.End}
	copy(rec.phases[:], sp.Phases[:])
	t.mu.Lock()
	t.engine = append(t.engine, rec)
	if len(t.chrome) < keepChrome {
		c := *sp
		c.ParentID = 0
		t.chrome = append(t.chrome, c)
	}
	t.mu.Unlock()
}

// keyed records a span already timed, joined by key (a trace id).
func (t *tracer) keyed(name, key string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: t.nextID.Add(1), key: key, name: name, start: start, end: end})
	t.mu.Unlock()
}

// accessLine is the part of a serve access-log line the join needs.
type accessLine struct {
	Trace     string           `json:"trace"`
	Time      time.Time        `json:"time"`
	ElapsedUs int64            `json:"elapsed_us"`
	PhasesUs  map[string]int64 `json:"phases_us"`
}

var phaseIndex = map[string]int{
	"queue_wait": 0, "fuse": 1, "plan": 2, "pack": 3, "compute": 4, "scatter": 5,
}

// Write consumes the server's access log: one JSON line per request,
// keyed by trace id. The engine span's extent is the sum of its phases,
// ending when the handler's elapsed time ends.
func (t *tracer) Write(p []byte) (int, error) {
	var l accessLine
	if err := json.Unmarshal(p, &l); err != nil {
		return len(p), nil
	}
	var rec engineRec
	var sum time.Duration
	for k, us := range l.PhasesUs {
		if i, ok := phaseIndex[k]; ok {
			rec.phases[i] = time.Duration(us) * time.Microsecond
			sum += rec.phases[i]
		}
	}
	rec.key = l.Trace
	rec.end = l.Time.Add(time.Duration(l.ElapsedUs) * time.Microsecond)
	rec.start = rec.end.Add(-sum)
	t.mu.Lock()
	t.engine = append(t.engine, rec)
	t.mu.Unlock()
	return len(p), nil
}

// reset drops everything recorded so far (the set-up's spans).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.engine, t.chrome = nil, nil, nil
	t.mu.Unlock()
}

// writeChrome writes the kept spans as Chrome trace JSON to path.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := make([]iatf.Span, 0, len(t.chrome)+keepChrome)
	all = append(all, t.chrome...)
	for i, s := range t.spans {
		if i >= keepChrome {
			break
		}
		all = append(all, iatf.Span{ID: s.id, ParentID: s.parent, Op: s.name, Count: s.op, Start: s.start, End: s.end})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := iatf.WriteChromeTrace(w, all); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
