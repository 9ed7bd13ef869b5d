// Package serve is the SLO-aware HTTP serving tier over the engine's
// async submission front-end — the network boundary of the ROADMAP's
// "millions of users" story. It keeps the tuned run-time stage behind a
// thin stdlib net/http surface (the IAAT-style install-time/run-time
// split: tuning happens below, admission decisions happen here) and
// drives those decisions from signals the engine already exports, the
// way tritonBLAS derives kernel selection analytically instead of by
// probing:
//
//   - POST /v1/do accepts one batched compact-BLAS request as JSON,
//     lowers it onto iatf.Submit (the EDF-ordered queue) and
//     writes the written operand back; a one-pass codec (codec.go) reads
//     and writes the wire without encoding/json. A context deadline comes
//     from the request body (deadline_ms) or the server default; a tenant
//     header maps to a priority class that breaks EDF ties.
//   - Admission control sheds load BEFORE enqueueing: the predicted queue
//     wait — the recent iatf_queue_wait_seconds p99 scaled by how full
//     the queue is relative to its depth high-water mark — is compared
//     against the request's deadline, and a request that would miss it
//     anyway is rejected with 429 and a Retry-After hint instead of
//     wasting a queue slot to time out inside the dispatcher.
//   - ErrQueueFull backpressure maps to the same 429 contract; a deadline
//     that expires during execution maps to 504.
//
// The admission signal is cached and refreshed at most once per
// Config.AdmitRefresh, so steady-state admission costs one atomic load
// plus a clock read, not a stats snapshot per request.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iatf"
)

// Config configures a Server. Engine is the backend — a private
// engine, an EngineSet's Engine, or nil for the process-wide default.
type Config struct {
	Engine *iatf.Engine

	// DefaultDeadline is applied to requests that carry no deadline_ms.
	// 0 means such requests run without a deadline (and are always
	// admitted — the predictor has nothing to compare against).
	DefaultDeadline time.Duration

	// Tenants maps the X-IATF-Tenant header to the tenant's serving
	// contract: the EDF priority class (Class breaks deadline ties,
	// overriding the body's priority field), the per-request latency
	// objective and the SLO attainment target the burn-rate gauge runs
	// against. A non-nil map — even an empty one — enables per-tenant
	// accounting on the backend (Engine.SetTenants): every
	// tagged request, shed, and deadline miss lands in the tenant's
	// rolling series, surfaced at /tenants and as iatf_tenant_* metrics.
	// Unknown tenants are tracked with a zero objective.
	Tenants map[string]iatf.TenantObjective

	// AdmitRefresh bounds how often the admission signal is recomputed
	// from the backend's QueueStats (default 5ms).
	AdmitRefresh time.Duration

	// MaxBodyBytes bounds a request body (default 64 MiB).
	MaxBodyBytes int64

	// AccessLog, when non-nil, receives one structured JSON line per
	// /v1/do request: method, trace id, tenant, op/shape, status,
	// predicted vs actual queue wait, and the engine span's per-phase
	// durations (joined via a per-request span sink). Writes are
	// serialized; give it an *os.File or a bytes.Buffer directly.
	AccessLog io.Writer
}

// Stats counts the server's request outcomes. Queue is the backend's
// aggregate submission-queue view at snapshot time.
type Stats struct {
	Admitted  uint64 `json:"admitted"`   // requests that passed admission and were submitted
	Done      uint64 `json:"done"`       // 200: completed within deadline
	Shed      uint64 `json:"shed"`       // 429: predicted wait exceeded the deadline
	QueueFull uint64 `json:"queue_full"` // 429: ErrQueueFull backpressure
	Expired   uint64 `json:"expired"`    // 504: deadline passed while queued or executing
	Errors    uint64 `json:"errors"`     // 400/405/500

	Queue iatf.QueueStats `json:"queue"`
}

// admitSignal is one cached admission prediction.
type admitSignal struct {
	at        time.Time
	predicted time.Duration
}

// Server is the serving tier: build one with New, mount Handler.
type Server struct {
	cfg Config

	admitted  atomic.Uint64
	done      atomic.Uint64
	shed      atomic.Uint64
	queueFull atomic.Uint64
	expired   atomic.Uint64
	errors    atomic.Uint64

	sig atomic.Pointer[admitSignal]

	logMu sync.Mutex // serializes AccessLog writes
}

// New builds a Server over cfg's backend. A non-nil Tenants map is
// installed on the backend, enabling per-tenant SLO accounting.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = iatf.DefaultEngine()
	}
	if cfg.AdmitRefresh <= 0 {
		cfg.AdmitRefresh = 5 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Tenants != nil {
		cfg.Engine.SetTenants(cfg.Tenants)
	}
	return &Server{cfg: cfg}
}

// TenantStats returns the backend's per-tenant SLO series (aggregated
// across shards on an EngineSet); empty when accounting is disabled.
func (s *Server) TenantStats() []iatf.TenantStats {
	ts := s.cfg.Engine.TenantStats()
	if ts == nil {
		ts = []iatf.TenantStats{}
	}
	return ts
}

// recordShed accounts an admission-control rejection in the tenant's
// SLO series: the request never reached the engine, so no span exists
// to carry it. No-op for untagged requests or disabled accounting.
func (s *Server) recordShed(tenant string) {
	if tenant == "" {
		return
	}
	s.cfg.Engine.RecordTenantShed(tenant)
}

// Stats snapshots the server's outcome counters.
func (s *Server) Stats() Stats {
	return Stats{
		Admitted:  s.admitted.Load(),
		Done:      s.done.Load(),
		Shed:      s.shed.Load(),
		QueueFull: s.queueFull.Load(),
		Expired:   s.expired.Load(),
		Errors:    s.errors.Load(),
		Queue:     s.cfg.Engine.QueueStats(),
	}
}

// PredictWait estimates the queue wait a request admitted now would see,
// refreshing the cached signal if it is older than Config.AdmitRefresh.
//
// The model uses exactly the two signals PR 5 exported: the queue-wait
// histogram bounds what recently queued requests actually waited (p99),
// and depth relative to the depth high-water mark says how close the
// queue is to the regime that produced that tail. An idle queue predicts
// the batch window (the floor any queued request pays); a queue at its
// historical peak predicts the full recent p99.
func (s *Server) PredictWait() time.Duration {
	if sig := s.sig.Load(); sig != nil && time.Since(sig.at) < s.cfg.AdmitRefresh {
		return sig.predicted
	}
	p := predictWait(s.cfg.Engine.QueueStats())
	s.sig.Store(&admitSignal{at: time.Now(), predicted: p})
	return p
}

// predictWait is the pure admission model over one queue snapshot.
func predictWait(q iatf.QueueStats) time.Duration {
	if q.Depth == 0 {
		return q.Window
	}
	hw := q.DepthHighWater
	if hw < q.Depth {
		hw = q.Depth
	}
	pred := time.Duration(float64(q.Wait.P99) * float64(q.Depth) / float64(hw))
	// The wait distribution needs traffic before its tail means anything;
	// until then fall back to mean-wait-per-queued-request, then to the
	// window floor.
	if pred == 0 {
		pred = q.Wait.Mean() * time.Duration(q.Depth)
	}
	if pred < q.Window {
		pred = q.Window
	}
	return pred
}

// Handler returns the serving mux:
//
//	POST /v1/do   execute one batched request
//	GET  /healthz liveness
//	GET  /stats   Stats as JSON
//	GET  /tenants per-tenant SLO series as JSON
//	GET  /metrics backend OpenMetrics scrape
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/do", s.handleDo)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.TenantStats())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	})
	mux.Handle("/metrics", s.cfg.Engine.MetricsHandler())
	return mux
}

// WireOperand is one operand on the wire: Count (from the request)
// contiguous column-major rows×cols matrices, back to back in Data.
type WireOperand struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// DoRequest is the /v1/do body. Mode strings follow BLAS spelling:
// trans "N"/"T", side "L"/"R", uplo "L"/"U", diag "N"/"U". DType is
// "f32" (default) or "f64"; Data is parsed at float64 precision and, for
// f32 requests, rounded once to float32. Which operands are read depends
// on Op exactly as in iatf.Request: gemm A,B,C — trsm/trmm A,B — syrk A,C.
type DoRequest struct {
	Op     string `json:"op"` // "gemm" | "trsm" | "trmm" | "syrk"
	DType  string `json:"dtype,omitempty"`
	TransA string `json:"trans_a,omitempty"`
	TransB string `json:"trans_b,omitempty"`
	Side   string `json:"side,omitempty"`
	Uplo   string `json:"uplo,omitempty"`
	Diag   string `json:"diag,omitempty"`

	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Count int     `json:"count"`

	A *WireOperand `json:"a,omitempty"`
	B *WireOperand `json:"b,omitempty"`
	C *WireOperand `json:"c,omitempty"`

	// DeadlineMs is the request's end-to-end SLO; 0 uses the server
	// default. Priority is the EDF tie-break class (overridden by a
	// mapped X-IATF-Tenant header).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	Priority   int   `json:"priority,omitempty"`
}

// DoResponse carries the written operand (C for gemm/syrk, B for
// trsm/trmm) back as column-major data, plus the server-side latency.
type DoResponse struct {
	Result    []float64 `json:"result"`
	ElapsedUs int64     `json:"elapsed_us"`
}

// errorBody is the JSON error contract, shared by every non-200 outcome.
type errorBody struct {
	Error           string `json:"error"`
	PredictedWaitMs int64  `json:"predicted_wait_ms,omitempty"`
	RetryAfterMs    int64  `json:"retry_after_ms,omitempty"`
}

// writeError emits one JSON error response. Every non-200 outcome
// carries a Retry-After header (whole seconds, minimum 1 — the header's
// resolution) derived from the predicted queue wait, so a correlation-
// aware client never has to parse the body to back off; 429s
// additionally carry the millisecond hints in the body, the original
// backpressure contract.
func writeError(w http.ResponseWriter, status int, msg string, predicted time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	body := errorBody{Error: msg}
	secs := int64((predicted + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	if status == http.StatusTooManyRequests {
		body.PredictedWaitMs = predicted.Milliseconds()
		body.RetryAfterMs = secs * 1000
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// priorityOf resolves the request's class: a mapped tenant's configured
// class wins over the body field.
func (s *Server) priorityOf(tenant string, body *DoRequest) int {
	if tenant != "" {
		if t, ok := s.cfg.Tenants[tenant]; ok {
			return t.Class
		}
	}
	return body.Priority
}

// zeroTraceID is the all-zero trace-id the W3C spec declares invalid.
const zeroTraceID = "00000000000000000000000000000000"

// traceOf resolves the request's correlation id: the trace-id field of
// a W3C traceparent header ("00-<32 hex>-<16 hex>-<2 hex>") — its second
// dash-separated field, lower-cased — when that field is 32 hex digits
// and not all zeros, else a fresh random 32-hex id. The id is echoed on
// every response as X-IATF-Trace and stamped onto the engine span.
func traceOf(r *http.Request) string {
	if _, rest, ok := strings.Cut(r.Header.Get("traceparent"), "-"); ok {
		id, _, _ := strings.Cut(rest, "-")
		if len(id) == 32 {
			id = strings.ToLower(id)
			if id != zeroTraceID && isHex(id) {
				return id
			}
		}
	}
	var b [16]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("%032x", uint64(time.Now().UnixNano()))
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// reqLog captures the engine span of one request for the access log —
// filled by a per-request span sink, read after the future resolves
// (FinishSpan runs before the future is resolved, so the read is
// ordered).
type reqLog struct {
	span     iatf.Span
	haveSpan bool

	// The wire phases: decode is read + parse + pack, encode is unpack +
	// format + write; mark is when the running one started.
	mark           time.Time
	decode, encode time.Duration
}

// accessEntry is one structured access-log line.
type accessEntry struct {
	Time   string `json:"time"`
	Method string `json:"method"`
	Trace  string `json:"trace"`
	Tenant string `json:"tenant,omitempty"`
	Op     string `json:"op,omitempty"`
	DType  string `json:"dtype,omitempty"`
	Shape  string `json:"shape,omitempty"`
	Count  int    `json:"count,omitempty"`
	Status int    `json:"status"`

	DeadlineMs      int64 `json:"deadline_ms,omitempty"`
	PredictedWaitUs int64 `json:"predicted_wait_us"`
	ActualWaitUs    int64 `json:"actual_wait_us"`
	ElapsedUs       int64 `json:"elapsed_us"`

	SpanID   uint64           `json:"span_id,omitempty"`
	PhasesUs map[string]int64 `json:"phases_us,omitempty"`
	WireUs   map[string]int64 `json:"wire_us,omitempty"` // set once the request reached the engine

	Error string `json:"error,omitempty"`
}

// logAccess emits one JSON line to the configured AccessLog.
func (s *Server) logAccess(e *accessEntry) {
	if s.cfg.AccessLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	json.NewEncoder(s.cfg.AccessLog).Encode(e)
}

func (s *Server) handleDo(w http.ResponseWriter, r *http.Request) {
	trace := traceOf(r)
	w.Header().Set("X-IATF-Trace", trace)
	tenant := r.Header.Get("X-IATF-Tenant")

	start := time.Now()
	var (
		req       DoRequest
		rl        *reqLog
		deadline  time.Duration
		predicted time.Duration
	)
	status := http.StatusOK
	errMsg := ""
	if s.cfg.AccessLog != nil {
		rl = &reqLog{}
		defer func() {
			e := accessEntry{
				Time:            start.UTC().Format(time.RFC3339Nano),
				Method:          r.Method,
				Trace:           trace,
				Tenant:          tenant,
				Op:              req.Op,
				DType:           req.DType,
				Count:           req.Count,
				Status:          status,
				DeadlineMs:      deadline.Milliseconds(),
				PredictedWaitUs: predicted.Microseconds(),
				ElapsedUs:       time.Since(start).Microseconds(),
				Error:           errMsg,
			}
			if rl.haveSpan {
				sp := &rl.span
				e.SpanID = sp.ID
				e.ActualWaitUs = sp.Phases[iatf.PhaseQueueWait].Microseconds()
				e.Shape = fmt.Sprintf("%dx%d", sp.M, sp.N)
				if sp.K > 0 {
					e.Shape += fmt.Sprintf("x%d", sp.K)
				}
				e.PhasesUs = make(map[string]int64, int(iatf.PhaseScatter)+1)
				for p := iatf.PhaseQueueWait; p <= iatf.PhaseScatter; p++ {
					if d := sp.Phases[p]; d > 0 {
						e.PhasesUs[p.String()] = d.Microseconds()
					}
				}
			}
			if rl.decode > 0 {
				e.WireUs = map[string]int64{"decode": rl.decode.Microseconds(), "encode": rl.encode.Microseconds()}
			}
			s.logAccess(&e)
		}()
	}
	fail := func(st int, msg string, pred time.Duration) {
		status, errMsg = st, msg
		writeError(w, st, msg, pred)
	}

	if r.Method != http.MethodPost {
		s.errors.Add(1)
		fail(http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	wb := wirePool.Get().(*wireBuf)
	defer putWire(wb)
	if rl != nil {
		rl.mark = time.Now()
	}
	if err := wb.readRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.errors.Add(1)
		fail(http.StatusBadRequest, "decode: "+err.Error(), 0)
		return
	}

	deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	if req.DeadlineMs <= 0 {
		deadline = s.cfg.DefaultDeadline
	}

	// Admission: shed a request whose predicted queue wait already
	// exceeds its deadline — it would only occupy a slot to die in.
	// The prediction is cached (AdmitRefresh), so reading it for the
	// access log on deadline-less requests costs an atomic load.
	predicted = s.PredictWait()
	if deadline > 0 && predicted > deadline {
		s.shed.Add(1)
		s.recordShed(tenant)
		fail(http.StatusTooManyRequests,
			fmt.Sprintf("shed: predicted queue wait %v exceeds deadline %v", predicted, deadline), predicted)
		return
	}

	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	var err error
	switch req.DType {
	case "", "f32":
		err = run[float32](s, ctx, wb, &req, s.priorityOf(tenant, &req), trace, tenant, rl, start)
	case "f64":
		err = run[float64](s, ctx, wb, &req, s.priorityOf(tenant, &req), trace, tenant, rl, start)
	default:
		s.errors.Add(1)
		fail(http.StatusBadRequest, "dtype must be f32 or f64", 0)
		return
	}

	if err == nil {
		s.done.Add(1)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(wb.out)))
		w.Write(wb.out)
		if rl != nil {
			rl.encode = time.Since(rl.mark)
		}
		return
	}
	st := classify(err)
	switch st {
	case http.StatusTooManyRequests:
		s.queueFull.Add(1)
		fail(st, "queue full: "+err.Error(), s.PredictWait())
	case http.StatusGatewayTimeout:
		s.expired.Add(1)
		fail(st, "deadline exceeded: "+err.Error(), s.PredictWait())
	default:
		s.errors.Add(1)
		fail(st, err.Error(), 0)
	}
}

// classify maps a submission/execution error onto the HTTP contract:
// backpressure → 429 (retryable), deadline/cancellation → 504, the
// engine's validation taxonomy and wire-level errBadRequest → 400,
// anything else → 500.
func classify(err error) int {
	switch {
	case errors.Is(err, iatf.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, iatf.ErrShape), errors.Is(err, iatf.ErrCount),
		errors.Is(err, iatf.ErrDType), errors.Is(err, iatf.ErrOperand),
		errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// errBadRequest marks wire-level validation failures (missing operand,
// short data) that never reach the engine's typed taxonomy.
var errBadRequest = errors.New("bad request")

// run lowers the wire request onto one iatf.Submit, waits it out and
// leaves the response body in wb.out, threading the trace id and tenant
// into the engine span (and, when the access log wants the span back, a
// per-request sink). Methods cannot be generic, so the dtype split lives
// here.
func run[T float32 | float64](s *Server, ctx context.Context, wb *wireBuf, req *DoRequest, priority int, trace, tenant string, rl *reqLog, start time.Time) error {
	if req.Count < 1 {
		return fmt.Errorf("%w: count must be >= 1", errBadRequest)
	}
	ir := iatf.Request[T]{Alpha: T(req.Alpha), Beta: T(req.Beta)}
	var err error
	if ir.TransA, err = parseTrans(req.TransA); err != nil {
		return err
	}
	if ir.TransB, err = parseTrans(req.TransB); err != nil {
		return err
	}
	if ir.Side, err = parseSide(req.Side); err != nil {
		return err
	}
	if ir.Uplo, err = parseUplo(req.Uplo); err != nil {
		return err
	}
	if ir.Diag, err = parseDiag(req.Diag); err != nil {
		return err
	}

	var written *iatf.Compact[T]
	switch req.Op {
	case "gemm":
		ir.Op = iatf.OpGEMM
		if ir.A, err = packOperand[T]("a", req.A, req.Count); err != nil {
			return err
		}
		if ir.B, err = packOperand[T]("b", req.B, req.Count); err != nil {
			return err
		}
		if ir.C, err = packOperand[T]("c", req.C, req.Count); err != nil {
			return err
		}
		written = ir.C
	case "trsm", "trmm":
		ir.Op = iatf.OpTRSM
		if req.Op == "trmm" {
			ir.Op = iatf.OpTRMM
		}
		if ir.A, err = packOperand[T]("a", req.A, req.Count); err != nil {
			return err
		}
		if ir.B, err = packOperand[T]("b", req.B, req.Count); err != nil {
			return err
		}
		written = ir.B
	case "syrk":
		ir.Op = iatf.OpSYRK
		if ir.A, err = packOperand[T]("a", req.A, req.Count); err != nil {
			return err
		}
		if ir.C, err = packOperand[T]("c", req.C, req.Count); err != nil {
			return err
		}
		written = ir.C
	default:
		return fmt.Errorf("%w: op must be gemm, trsm, trmm or syrk", errBadRequest)
	}

	opts := make([]iatf.Option, 0, 5)
	opts = append(opts, iatf.WithPriority(priority), iatf.WithEngine(s.cfg.Engine), iatf.WithTrace(trace))
	if tenant != "" {
		opts = append(opts, iatf.WithTenant(tenant))
	}
	if rl != nil {
		opts = append(opts, iatf.WithSpanSink(func(sp *iatf.Span) {
			rl.span = *sp
			rl.haveSpan = true
		}))
		rl.decode = time.Since(rl.mark)
	}
	s.admitted.Add(1)
	fut, err := iatf.Submit(ctx, ir, opts...)
	if err != nil {
		return err
	}
	if err := fut.Wait(ctx); err != nil {
		return err
	}
	if rl != nil {
		rl.mark = time.Now()
	}
	wb.out, err = appendResponse(wb.out[:0], written.Unpack().Data(), time.Since(start).Microseconds())
	return err
}

// parseTrans maps the wire spelling onto the BLAS mode ("" = "N").
func parseTrans(s string) (iatf.Trans, error) {
	switch s {
	case "", "N", "n":
		return iatf.NoTrans, nil
	case "T", "t":
		return iatf.Transpose, nil
	}
	return iatf.NoTrans, fmt.Errorf("%w: trans must be N or T, got %q", errBadRequest, s)
}

func parseSide(s string) (iatf.Side, error) {
	switch s {
	case "", "L", "l":
		return iatf.Left, nil
	case "R", "r":
		return iatf.Right, nil
	}
	return iatf.Left, fmt.Errorf("%w: side must be L or R, got %q", errBadRequest, s)
}

func parseUplo(s string) (iatf.Uplo, error) {
	switch s {
	case "", "L", "l":
		return iatf.Lower, nil
	case "U", "u":
		return iatf.Upper, nil
	}
	return iatf.Lower, fmt.Errorf("%w: uplo must be L or U, got %q", errBadRequest, s)
}

func parseDiag(s string) (iatf.Diag, error) {
	switch s {
	case "", "N", "n":
		return iatf.NonUnit, nil
	case "U", "u":
		return iatf.Unit, nil
	}
	return iatf.NonUnit, fmt.Errorf("%w: diag must be N or U, got %q", errBadRequest, s)
}

// packOperand converts one wire operand into the compact layout.
func packOperand[T float32 | float64](name string, o *WireOperand, count int) (*iatf.Compact[T], error) {
	if o == nil {
		return nil, fmt.Errorf("%w: operand %s missing", errBadRequest, name)
	}
	if o.Rows < 1 || o.Cols < 1 {
		return nil, fmt.Errorf("%w: operand %s: invalid dims %dx%d", errBadRequest, name, o.Rows, o.Cols)
	}
	want := count
	for _, f := range [...]int{o.Rows, o.Cols} {
		if want > math.MaxInt/f {
			return nil, fmt.Errorf("%w: operand %s: count*rows*cols overflows", errBadRequest, name)
		}
		want *= f
	}
	if len(o.Data) != want {
		return nil, fmt.Errorf("%w: operand %s: %d elements, want count*rows*cols = %d",
			errBadRequest, name, len(o.Data), want)
	}
	b := iatf.NewBatch[T](count, o.Rows, o.Cols)
	dst := b.Data()
	for i, v := range o.Data {
		dst[i] = T(v)
	}
	return iatf.Pack(b), nil
}
