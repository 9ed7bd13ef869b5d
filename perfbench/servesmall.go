package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"iatf"
	"iatf/internal/serve"
)

// serveSmallCatalog is serve-small's dozen distinct plans: f32 and f64
// GEMM at sizes 2–8 and TRSM/TRMM/SYRK at 4 and 8, counts 8–64.
var serveSmallCatalog = []problem{
	{op: opGEMM, dt: 's', m: 2, n: 2, k: 2, count: 64},
	{op: opGEMM, dt: 's', m: 4, n: 4, k: 4, count: 16},
	{op: opGEMM, dt: 'd', m: 4, n: 4, k: 4, count: 32},
	{op: opGEMM, dt: 's', m: 6, n: 6, k: 6, count: 24},
	{op: opGEMM, dt: 's', m: 8, n: 8, k: 8, count: 16},
	{op: opGEMM, dt: 'd', m: 8, n: 8, k: 8, count: 8},
	{op: opGEMM, dt: 'd', m: 3, n: 5, k: 7, count: 40},
	{op: opTRSM, dt: 'd', m: 4, n: 4, count: 32},
	{op: opTRSM, dt: 's', m: 8, n: 8, count: 16},
	{op: opTRMM, dt: 'd', m: 8, n: 8, count: 16},
	{op: opTRMM, dt: 's', m: 4, n: 4, count: 64},
	{op: opSYRK, dt: 'd', n: 4, k: 4, count: 32},
	{op: opSYRK, dt: 's', n: 8, k: 8, count: 8},
}

const (
	// serveRate is the open loop's fixed arrival rate: about a quarter
	// of what this server's ~1.5 ms of CPU per request allows on two
	// vCPUs, so the loop measures service, not overload.
	serveRate = 300
	// serveDeadlineMs is every request's deadline_ms, and the tenants'
	// objective; a 200 that arrives later still counts as failed.
	serveDeadlineMs = 250
	// serveVariants is how many operand sets each plan cycles through.
	serveVariants = 4
)

var serveTenants = []string{"batch", "rt"}

// serveReq is one pre-encoded request body with the expected result.
type serveReq struct {
	p    problem
	body []byte
	want []byte // the JSON text of the expected result array
	// inputs, kept for the oracle
	a, b, c any
}

// serveSmall is HTTP serving of small requests: an open loop at
// serveRate over at most nproc keep-alive connections to an in-process
// server on a loopback listener. Wire decode/encode, admission and
// per-call dispatch dominate; the kernels take a few µs per request.
type serveSmall struct {
	seed  int64
	reqs  [][]serveReq // [problem][variant]
	order []int        // request i → problem index
	vars  []int        // request i → variant

	front *httpFront
	first [][]byte // first response's result text per problem

	tamper func(resultText []byte)
}

func newServeSmall(seed int64) *serveSmall {
	rng := rand.New(rand.NewSource(seed))
	w := &serveSmall{seed: seed}
	for _, p := range serveSmallCatalog {
		var vs []serveReq
		for v := 0; v < serveVariants; v++ {
			if p.dt == 's' {
				vs = append(vs, makeServeReq[float32](rng, p))
			} else {
				vs = append(vs, makeServeReq[float64](rng, p))
			}
		}
		w.reqs = append(w.reqs, vs)
	}
	n := int(serveRate*60) + 1 // enough for a 60 s run, the longest BENCHMARK.json allows
	w.order = make([]int, n)
	w.vars = make([]int, n)
	for i := range w.order {
		w.order[i] = rng.Intn(len(serveSmallCatalog))
		w.vars[i] = rng.Intn(serveVariants)
	}
	return w
}

func makeServeReq[T float32 | float64](rng *rand.Rand, p problem) serveReq {
	ar, ac := p.aDims()
	br, bc := p.bDims()
	cr, cc := p.cDims()
	a := randA[T](rng, p)
	b := randVals[T](rng, p.count*br*bc)
	c := randVals[T](rng, p.count*cr*cc)
	dtype := "f32"
	if p.dt == 'd' {
		dtype = "f64"
	}
	body := serve.DoRequest{Op: p.op.String(), DType: dtype, Alpha: 1, Beta: 0, Count: p.count,
		TransA: "N", TransB: "N", Side: "L", Uplo: "L", Diag: "N", DeadlineMs: serveDeadlineMs}
	body.A = &serve.WireOperand{Rows: ar, Cols: ac, Data: widen(a)}
	switch p.op {
	case opGEMM:
		body.B = &serve.WireOperand{Rows: br, Cols: bc, Data: widen(b)}
		body.C = &serve.WireOperand{Rows: cr, Cols: cc, Data: widen(c)}
	case opSYRK:
		body.C = &serve.WireOperand{Rows: cr, Cols: cc, Data: widen(c)}
	default:
		body.B = &serve.WireOperand{Rows: br, Cols: bc, Data: widen(b)}
	}
	enc, err := json.Marshal(body)
	if err != nil {
		panic(err) // finite values always encode
	}
	return serveReq{p: p, body: enc, a: a, b: b, c: c}
}

func widen[T float32 | float64](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func (w *serveSmall) problems() []problem { return serveSmallCatalog }

func (w *serveSmall) representative() problem { return serveSmallCatalog[1] }

// handlerWrap is the benchmark's middleware around Server.Handler(); the
// traced run records a serve.handler span per request through it.
type handlerWrap struct {
	h  http.Handler
	tr *tracer
}

func (m *handlerWrap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if m.tr == nil {
		m.h.ServeHTTP(rw, r)
		return
	}
	start := time.Now()
	m.h.ServeHTTP(rw, r)
	m.tr.keyed("serve.handler", rw.Header().Get("X-IATF-Trace"), start, time.Now())
}

// httpFront is a server on a loopback listener with its keep-alive
// client.
type httpFront struct {
	server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	seed   int64
}

// startFront starts a server; a non-nil tracer receives its access log
// and the handler spans.
func startFront(tenants []string, tr *tracer, seed int64) (*httpFront, error) {
	var accessLog io.Writer
	if tr != nil {
		accessLog = tr
	}
	f := &httpFront{server: newServer(tenants, accessLog), seed: seed}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.hs = &http.Server{Handler: &handlerWrap{h: f.handler, tr: tr}}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.url = "http://" + ln.Addr().String() + "/v1/do"
	conns := runtime.NumCPU()
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}
	return f, nil
}

// stop closes the server and waits for it.
func (f *httpFront) stop() {
	f.client.CloseIdleConnections()
	f.hs.Close()
	<-f.served
}

var errStatus = errors.New("non-200 response")

// post sends one body; tagged >= 0 adds tenant and traceparent headers
// derived from it. It returns the response's result text and the trace
// id the server echoed.
func (f *httpFront) post(ctx context.Context, body []byte, tagged int, buf *bytes.Buffer) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tagged >= 0 {
		req.Header.Set("X-IATF-Tenant", serveTenants[tagged%len(serveTenants)])
		req.Header.Set("traceparent", fmt.Sprintf("00-%016x%016x-%016x-01", uint64(f.seed)+1, uint64(tagged)+1, uint64(tagged)+1))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, "", err
	}
	trace := resp.Header.Get("X-IATF-Trace")
	if resp.StatusCode != http.StatusOK {
		return nil, trace, fmt.Errorf("%w: %d %s", errStatus, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resultText(buf.Bytes()), trace, nil
}

// setup starts the server and sends each plan's first request.
func (w *serveSmall) setup(ctx context.Context, tr *tracer) error {
	var err error
	if w.front, err = startFront(serveTenants, tr, w.seed); err != nil {
		return err
	}
	w.first = make([][]byte, len(w.reqs))
	var buf bytes.Buffer
	for pi := range w.reqs {
		res, _, err := w.front.post(ctx, w.reqs[pi][0].body, -1, &buf)
		if err != nil {
			return fmt.Errorf("%s: %w", serveSmallCatalog[pi].name(), err)
		}
		w.first[pi] = append([]byte(nil), res...)
	}
	return nil
}

// resultText extracts the raw JSON array of the response's result field,
// so it compares bit-exactly with the expected text (shortest float
// formatting round-trips, so equal text ⇔ equal values) without decoding.
func resultText(body []byte) []byte {
	const key = `"result":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, ']')
	if j < 0 {
		return nil
	}
	return rest[:j+1]
}

// verify computes the serial reference through a private engine's sync
// Do, checks it once against the internal/matrix reference, then checks
// the set-up's first responses bit for bit.
func (w *serveSmall) verify() error {
	ctx := context.Background()
	oracle, _ := newEngineTarget()
	for pi, vs := range w.reqs {
		for v := range vs {
			r := &vs[v]
			var err error
			if r.p.dt == 's' {
				r.want, err = serialResult[float32](ctx, oracle, r, v == 0)
			} else {
				r.want, err = serialResult[float64](ctx, oracle, r, v == 0)
			}
			if err != nil {
				return err
			}
		}
		if !bytes.Equal(w.first[pi], vs[0].want) {
			return fmt.Errorf("%s: first response differs from the serial reference", vs[0].p.name())
		}
	}
	return nil
}

// serialResult runs r through the oracle engine's sync Do and returns the
// expected result text; withRef also checks it against internal/matrix.
func serialResult[T float32 | float64](ctx context.Context, oracle target, r *serveReq, withRef bool) ([]byte, error) {
	p := r.p
	a, b, c := r.a.([]T), r.b.([]T), r.c.([]T)
	ar, ac := p.aDims()
	br, bc := p.bDims()
	cr, cc := p.cDims()
	A := toCompact(a, p.count, ar, ac)
	var req iatf.Request[T]
	var out *iatf.Compact[T]
	switch p.op {
	case opGEMM:
		out = toCompact(c, p.count, cr, cc)
		req = gemmReq(false, false, T(1), A, toCompact(b, p.count, br, bc), T(0), out)
	case opSYRK:
		out = toCompact(c, p.count, cr, cc)
		req = syrkReq(T(1), A, T(0), out)
	default:
		out = toCompact(b, p.count, br, bc)
		req = triReq(p.op, p.upper, p.unit, A, out)
	}
	if err := do(ctx, oracle, req, nil); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", p.name(), err)
	}
	got := fromCompact(out)
	if withRef {
		if err := checkClose(p.name()+" vs reference", got, reference(p, a, b, c), refTol(p.dt)); err != nil {
			return nil, err
		}
	}
	return json.Marshal(widen(got))
}

type serveJob struct {
	i   int
	due time.Time
}

func (w *serveSmall) measure(ctx context.Context, seconds float64, tr *tracer) *phase {
	ph := &phase{}
	total := int(seconds * serveRate)
	jobs := make(chan serveJob, total) // sized to the sends: the generator never blocks
	workers := runtime.NumCPU()
	parts := make([]*phase, workers)
	var wg sync.WaitGroup
	ph.clock.start()
	start := time.Now()
	for g := 0; g < workers; g++ {
		parts[g] = &phase{}
		wg.Add(1)
		go func(part *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				w.one(ctx, j, part, &buf, tr)
			}
		}(parts[g])
	}
	interval := time.Second / serveRate
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lateMs = append(ph.lateMs, float64(time.Since(due))/1e6)
		jobs <- serveJob{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	ph.clock.stop()
	for _, p := range parts {
		ph.merge(p)
	}
	return ph
}

func (w *serveSmall) one(ctx context.Context, j serveJob, part *phase, buf *bytes.Buffer, tr *tracer) {
	k := j.i % len(w.order)
	r := &w.reqs[w.order[k]][w.vars[k]]
	tagged := -1
	if j.i%2 == 0 {
		tagged = j.i / 2
	}
	part.attempted++
	t0 := time.Now()
	res, trace, err := w.front.post(ctx, r.body, tagged, buf)
	done := time.Now()
	if tr != nil {
		tr.keyed("http.post", trace, t0, done)
	}
	lat := done.Sub(j.due)
	rec := opRec{lat: lat, flops: r.p.flops()}
	switch {
	case err != nil:
		part.fail(fmt.Errorf("request %d (%s): %w", j.i, r.p.name(), err), false)
	default:
		if w.tamper != nil {
			w.tamper(res)
		}
		if !bytes.Equal(res, r.want) {
			part.fail(fmt.Errorf("request %d (%s): result differs from the serial reference", j.i, r.p.name()), true)
		} else if lat > serveDeadlineMs*time.Millisecond {
			part.fail(fmt.Errorf("request %d (%s): %v past its %d ms deadline", j.i, r.p.name(), lat, serveDeadlineMs), false)
		} else {
			rec.ok = true
		}
	}
	part.ops = append(part.ops, rec)
}

func (w *serveSmall) close() {
	if w.front != nil {
		w.front.stop()
	}
}
