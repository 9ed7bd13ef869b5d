package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iatf"
)

// newTestServer builds a Server over a private engine with EDF and a
// small batch window — the production-shaped configuration.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = iatf.NewEngine(iatf.WithBatchWindow(500 * time.Microsecond))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one DoRequest and decodes the raw response.
func post(t *testing.T, ts *httptest.Server, req DoRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/do", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// colMajor builds count n×n column-major matrices with f(m, i, j).
func colMajor(count, rows, cols int, f func(m, i, j int) float64) []float64 {
	out := make([]float64, count*rows*cols)
	for m := 0; m < count; m++ {
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				out[m*rows*cols+j*rows+i] = f(m, i, j)
			}
		}
	}
	return out
}

// TestServeGEMMRoundTrip checks the full wire path against a local
// reference: the HTTP result must match iatf.Do on identical operands.
func TestServeGEMMRoundTrip(t *testing.T) {
	for _, dtype := range []string{"f32", "f64"} {
		t.Run(dtype, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			const count, n = 3, 4
			a := colMajor(count, n, n, func(m, i, j int) float64 { return float64(m+1) * float64(i*n+j+1) / 7 })
			b := colMajor(count, n, n, func(m, i, j int) float64 { return float64(m-1) + float64(j-i)/3 })
			c := colMajor(count, n, n, func(m, i, j int) float64 { return float64(i + j) })

			resp, body := post(t, ts, DoRequest{
				Op: "gemm", DType: dtype, Alpha: 1.5, Beta: 0.5, Count: count,
				A:          &WireOperand{Rows: n, Cols: n, Data: a},
				B:          &WireOperand{Rows: n, Cols: n, Data: b},
				C:          &WireOperand{Rows: n, Cols: n, Data: c},
				DeadlineMs: 5000,
			}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var out DoResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}

			want := referenceGEMM(t, dtype, count, n, 1.5, 0.5, a, b, c)
			if len(out.Result) != len(want) {
				t.Fatalf("result length %d, want %d", len(out.Result), len(want))
			}
			for i := range want {
				if math.Abs(out.Result[i]-want[i]) > 1e-5 {
					t.Fatalf("result[%d] = %g, want %g", i, out.Result[i], want[i])
				}
			}
		})
	}
}

// referenceGEMM runs the same problem through the library's sync path at
// the same precision and returns the written C as float64.
func referenceGEMM(t *testing.T, dtype string, count, n int, alpha, beta float64, a, b, c []float64) []float64 {
	t.Helper()
	switch dtype {
	case "f32":
		return refGEMM[float32](t, count, n, alpha, beta, a, b, c)
	case "f64":
		return refGEMM[float64](t, count, n, alpha, beta, a, b, c)
	}
	t.Fatalf("dtype %q", dtype)
	return nil
}

func refGEMM[T float32 | float64](t *testing.T, count, n int, alpha, beta float64, a, b, c []float64) []float64 {
	t.Helper()
	mk := func(src []float64) *iatf.Compact[T] {
		batch := iatf.NewBatch[T](count, n, n)
		dst := batch.Data()
		for i, v := range src {
			dst[i] = T(v)
		}
		return iatf.Pack(batch)
	}
	ca, cb, cc := mk(a), mk(b), mk(c)
	err := iatf.Do(context.Background(), iatf.Request[T]{
		Op: iatf.OpGEMM, Alpha: T(alpha), Beta: T(beta), A: ca, B: cb, C: cc,
	}, iatf.WithEngine(iatf.NewEngine()))
	if err != nil {
		t.Fatal(err)
	}
	out := cc.Unpack().Data()
	res := make([]float64, len(out))
	for i, v := range out {
		res[i] = float64(v)
	}
	return res
}

// TestServeTRSMAndSYRK exercises the other op codecs end to end: the
// written operand (B for trsm, C for syrk) comes back finite and with
// the right extent, and trsm actually solves its system (A·X = α·B).
func TestServeTRSMAndSYRK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const count, n = 2, 4

	// Well-conditioned lower-triangular A.
	a := colMajor(count, n, n, func(m, i, j int) float64 {
		switch {
		case i == j:
			return 2 + float64(m)
		case i > j:
			return 0.25
		}
		return 0
	})
	b := colMajor(count, n, n, func(m, i, j int) float64 { return float64(m*n*n + j*n + i + 1) })

	resp, body := post(t, ts, DoRequest{
		Op: "trsm", DType: "f64", Side: "L", Uplo: "L", TransA: "N", Diag: "N",
		Alpha: 1, Count: count,
		A:          &WireOperand{Rows: n, Cols: n, Data: a},
		B:          &WireOperand{Rows: n, Cols: n, Data: b},
		DeadlineMs: 5000,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trsm status %d: %s", resp.StatusCode, body)
	}
	var out DoResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Verify A·X = B per matrix.
	for m := 0; m < count; m++ {
		am, xm, bm := a[m*n*n:], out.Result[m*n*n:], b[m*n*n:]
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				var sum float64
				for k := 0; k < n; k++ {
					sum += am[k*n+i] * xm[j*n+k]
				}
				if math.Abs(sum-bm[j*n+i]) > 1e-9 {
					t.Fatalf("matrix %d: (A·X)[%d,%d] = %g, want %g", m, i, j, sum, bm[j*n+i])
				}
			}
		}
	}

	resp, body = post(t, ts, DoRequest{
		Op: "syrk", DType: "f64", Uplo: "L", TransA: "N",
		Alpha: 1, Beta: 0, Count: count,
		A:          &WireOperand{Rows: n, Cols: n, Data: b},
		C:          &WireOperand{Rows: n, Cols: n, Data: make([]float64, count*n*n)},
		DeadlineMs: 5000,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("syrk status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Spot-check one lower-triangle entry: C[1,0] of matrix 0 = row1·row0.
	var want float64
	for k := 0; k < n; k++ {
		want += b[k*n+1] * b[k*n+0]
	}
	if math.Abs(out.Result[1]-want) > 1e-9 {
		t.Fatalf("syrk C[1,0] = %g, want %g", out.Result[1], want)
	}
}

// TestServeValidation covers the 400 contract: each malformed body is
// rejected before (or at) the engine boundary with a JSON error.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	cases := []struct {
		name string
		req  DoRequest
	}{
		{"unknown op", DoRequest{Op: "axpy", Count: 1, A: n4, B: n4, C: n4}},
		{"zero count", DoRequest{Op: "gemm", Count: 0, A: n4, B: n4, C: n4}},
		{"missing operand", DoRequest{Op: "gemm", Count: 1, A: n4, B: n4}},
		{"short data", DoRequest{Op: "gemm", Count: 2, A: n4, B: n4, C: n4}},
		{"bad trans", DoRequest{Op: "gemm", TransA: "Q", Count: 1, A: n4, B: n4, C: n4}},
		{"bad dims", DoRequest{Op: "gemm", Count: 1, A: &WireOperand{Rows: 0, Cols: 4}, B: n4, C: n4}},
		{"shape mismatch", DoRequest{Op: "gemm", Count: 1, A: n4,
			B: &WireOperand{Rows: 3, Cols: 3, Data: make([]float64, 9)}, C: n4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.req, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %q (err %v)", body, err)
			}
		})
	}

	t.Run("bad dtype", func(t *testing.T) {
		resp, _ := post(t, ts, DoRequest{Op: "gemm", DType: "f16", Count: 1, A: n4, B: n4, C: n4}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/do")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
	t.Run("garbage body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/do", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestServeShed forces the cached admission signal high and checks the
// 429 contract: Retry-After header (whole seconds, >= 1), the
// millisecond hints in the body, and the shed counter — all without the
// request ever touching the queue.
func TestServeShed(t *testing.T) {
	s, ts := newTestServer(t, Config{AdmitRefresh: time.Hour})
	s.sig.Store(&admitSignal{at: time.Now(), predicted: 3 * time.Second})

	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	resp, body := post(t, ts, DoRequest{
		Op: "gemm", Count: 1, A: n4, B: n4, C: n4, DeadlineMs: 10,
	}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 3 {
		t.Fatalf("Retry-After %q, want >= 3s", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.PredictedWaitMs != 3000 {
		t.Fatalf("predicted_wait_ms = %d, want 3000", eb.PredictedWaitMs)
	}
	if eb.RetryAfterMs < 3000 {
		t.Fatalf("retry_after_ms = %d, want >= 3000", eb.RetryAfterMs)
	}
	if got := s.Stats(); got.Shed != 1 || got.Admitted != 0 {
		t.Fatalf("stats shed=%d admitted=%d, want 1/0", got.Shed, got.Admitted)
	}

	// Same load, no deadline: admission cannot shed what has no SLO.
	resp, body = post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-deadline status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestServeTenantPriority checks the header→class mapping and its
// precedence over the body field.
func TestServeTenantPriority(t *testing.T) {
	s := New(Config{Engine: iatf.NewEngine(), Tenants: map[string]iatf.TenantObjective{
		"rt": {Class: 7}, "batch": {Class: -1},
	}})
	mk := func(tenant string, bodyPrio int) int {
		return s.priorityOf(tenant, &DoRequest{Priority: bodyPrio})
	}
	if got := mk("rt", 0); got != 7 {
		t.Fatalf("rt class = %d, want 7", got)
	}
	if got := mk("batch", 3); got != -1 {
		t.Fatalf("mapped tenant must win over body: got %d, want -1", got)
	}
	if got := mk("unknown", 3); got != 3 {
		t.Fatalf("unknown tenant falls back to body: got %d, want 3", got)
	}
	if got := mk("", 2); got != 2 {
		t.Fatalf("no header uses body: got %d, want 2", got)
	}
}

// TestPredictWaitModel pins the pure admission model to its contract.
func TestPredictWaitModel(t *testing.T) {
	window := 2 * time.Millisecond
	base := iatf.QueueStats{Window: window}

	q := base
	if got := predictWait(q); got != window {
		t.Fatalf("idle queue: %v, want window %v", got, window)
	}

	q = base
	q.Depth, q.DepthHighWater = 8, 8
	q.Wait.P99 = 40 * time.Millisecond
	if got := predictWait(q); got != 40*time.Millisecond {
		t.Fatalf("at high water: %v, want full p99", got)
	}

	q.Depth = 4
	if got := predictWait(q); got != 20*time.Millisecond {
		t.Fatalf("half full: %v, want p99/2", got)
	}

	// Depth above the recorded high water must not extrapolate past p99.
	q.Depth, q.DepthHighWater = 16, 8
	if got := predictWait(q); got != 40*time.Millisecond {
		t.Fatalf("above high water: %v, want clamped p99", got)
	}

	// No p99 yet: mean × depth, floored at the window.
	q = base
	q.Depth, q.DepthHighWater = 4, 8
	q.Wait.Count, q.Wait.SumNs = 2, uint64(10*time.Millisecond)/1*2
	if got := predictWait(q); got != 40*time.Millisecond {
		t.Fatalf("mean fallback: %v, want mean*depth = 40ms", got)
	}

	q.Wait = iatf.QueueStats{}.Wait
	q.Depth = 1
	if got := predictWait(q); got != window {
		t.Fatalf("floor: %v, want window %v", got, window)
	}
}

// TestClassify pins the error→status contract.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{iatf.ErrQueueFull, http.StatusTooManyRequests},
		{fmt.Errorf("wrap: %w", iatf.ErrQueueFull), http.StatusTooManyRequests},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{iatf.ErrShape, http.StatusBadRequest},
		{iatf.ErrCount, http.StatusBadRequest},
		{iatf.ErrDType, http.StatusBadRequest},
		{iatf.ErrOperand, http.StatusBadRequest},
		{errBadRequest, http.StatusBadRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Fatalf("classify(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestServeEndpoints covers the sidecar endpoints: healthz, stats JSON
// (with the queue aggregate present), and an OpenMetrics scrape.
func TestServeEndpoints(t *testing.T) {
	set := iatf.NewEngineSet(2)
	s, ts := newTestServer(t, Config{Engine: set.Engine})

	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	if resp, body := post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("do: %d: %s", resp.StatusCode, body)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hr.StatusCode)
	}

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(sr.Body).Decode(&st)
	sr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Admitted != 1 {
		t.Fatalf("stats done=%d admitted=%d, want 1/1", st.Done, st.Admitted)
	}
	if st.Queue.Submitted == 0 {
		t.Fatalf("stats queue aggregate missing: %+v", st.Queue)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	mr.Body.Close()
	if !strings.Contains(buf.String(), "iatf_queue_depth") {
		t.Fatalf("metrics scrape missing queue families:\n%.400s", buf.String())
	}
	if !strings.Contains(buf.String(), "iatf_queue_edf") {
		t.Fatalf("metrics scrape missing iatf_queue_edf gauge")
	}
	_ = s
}

// TestServeTraceHeaderAllPaths: every response — 200, 405, 400, 429,
// 504 — carries X-IATF-Trace, a supplied well-formed traceparent is
// echoed verbatim, malformed ones are replaced with a fresh id, and
// every non-200 carries Retry-After.
func TestServeTraceHeaderAllPaths(t *testing.T) {
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := map[string]string{"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"}
	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}

	s, ts := newTestServer(t, Config{AdmitRefresh: time.Hour})

	// 200 with traceparent: exact echo.
	resp, body := post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4}, tp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("200 path: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-IATF-Trace"); got != traceID {
		t.Fatalf("200 trace = %q, want %q", got, traceID)
	}

	// 200 without traceparent: a fresh 32-hex id.
	resp, _ = post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4}, nil)
	if got := resp.Header.Get("X-IATF-Trace"); len(got) != 32 {
		t.Fatalf("generated trace = %q, want 32 hex chars", got)
	}

	// Malformed traceparents are not echoed.
	for name, hdr := range map[string]string{
		"zero id":  "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"short id": "00-abc123-00f067aa0ba902b7-01",
		"non-hex":  "00-4bf92f3577b34da6a3ce929d0e0e473Z-00f067aa0ba902b7-01",
		"garbage":  "nope",
	} {
		resp, _ = post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4},
			map[string]string{"traceparent": hdr})
		got := resp.Header.Get("X-IATF-Trace")
		if len(got) != 32 || strings.Contains(hdr, got) {
			t.Fatalf("%s: trace = %q, want fresh 32-hex id", name, got)
		}
	}

	checkErr := func(name string, resp *http.Response, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if got := resp.Header.Get("X-IATF-Trace"); got != traceID {
			t.Fatalf("%s: trace = %q, want %q", name, got, traceID)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("%s: Retry-After = %q, want >= 1", name, resp.Header.Get("Retry-After"))
		}
	}

	// 405: wrong method.
	hr, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/do", nil)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("traceparent", tp["traceparent"])
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	checkErr("405", resp, http.StatusMethodNotAllowed)

	// 400: malformed body.
	hr, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/do", strings.NewReader("{nope"))
	hr.Header.Set("traceparent", tp["traceparent"])
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	checkErr("400", resp, http.StatusBadRequest)

	// 429: forced admission shed.
	s.sig.Store(&admitSignal{at: time.Now(), predicted: 3 * time.Second})
	resp, _ = post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4, DeadlineMs: 10}, tp)
	checkErr("429", resp, http.StatusTooManyRequests)
	s.sig.Store(&admitSignal{at: time.Now(), predicted: 0})

	// 504: a deadline far below the compute cost of a heavy batch.
	const count, n = 8192, 8
	heavy := make([]float64, count*n*n)
	resp, _ = post(t, ts, DoRequest{
		Op: "gemm", DType: "f64", Count: count,
		A:          &WireOperand{Rows: n, Cols: n, Data: heavy},
		B:          &WireOperand{Rows: n, Cols: n, Data: heavy},
		C:          &WireOperand{Rows: n, Cols: n, Data: heavy},
		DeadlineMs: 1,
	}, tp)
	checkErr("504", resp, http.StatusGatewayTimeout)
}

// FuzzTraceparent: traceOf always returns an id safe to echo in the
// X-IATF-Trace header — 32 lowercase hex digits, never all zeros. It is
// the header's lower-cased second dash-separated field exactly when
// that field is 32 hex digits and not all zeros; otherwise it is fresh,
// so two resolutions of the same request differ.
func FuzzTraceparent(f *testing.F) {
	lowerHex32 := func(s string) bool {
		if len(s) != 32 || s == zeroTraceID {
			return false
		}
		for _, c := range []byte(s) {
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, tp string) {
		r := &http.Request{Header: http.Header{}}
		if tp != "" {
			r.Header["Traceparent"] = []string{tp}
		}
		id := traceOf(r)
		if !lowerHex32(id) {
			t.Fatalf("traceparent %q: id %q is not 32 lowercase hex digits, non-zero", tp, id)
		}
		want := ""
		if fields := strings.Split(tp, "-"); len(fields) >= 2 && len(fields[1]) == 32 {
			if low := strings.ToLower(fields[1]); lowerHex32(low) {
				want = low
			}
		}
		switch {
		case want != "" && id != want:
			t.Fatalf("traceparent %q: id %q, want the header's trace-id %q", tp, id, want)
		case want == "" && traceOf(r) == id:
			t.Fatalf("traceparent %q: id %q repeats, want a fresh id per resolution", tp, id)
		}
	})
}

// TestServeTraceparentSpanPropagation: the wire trace id and tenant land
// on the engine span of the dispatched request — the join point between
// the HTTP access log and engine-level tracing.
func TestServeTraceparentSpanPropagation(t *testing.T) {
	eng := iatf.NewEngine()
	ring := iatf.NewSpanRing(32)
	eng.SetSpanSink(ring.Add)
	_, ts := newTestServer(t, Config{
		Engine:  eng,
		Tenants: map[string]iatf.TenantObjective{"rt": {Class: 5, Objective: time.Second, Target: 0.99}},
	})

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	resp, body := post(t, ts, DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4}, map[string]string{
		"traceparent":   "00-" + traceID + "-b7ad6b7169203331-01",
		"X-IATF-Tenant": "rt",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	spans := ring.Trace(traceID)
	if len(spans) != 1 {
		t.Fatalf("ring.Trace(%q) = %d spans, want 1", traceID, len(spans))
	}
	sp := spans[0]
	if sp.TraceID != traceID || sp.Origin != "rt" {
		t.Fatalf("span trace/origin = %q/%q", sp.TraceID, sp.Origin)
	}
	if sp.Op != "GEMM" || sp.Error != "" {
		t.Fatalf("span = %+v", sp)
	}
}

// TestServeTenantAccounting: the /tenants endpoint reflects a
// deterministic workload — completed requests count as deadline hits
// against the tenant objective, admission sheds burn the window, and
// unknown tenants are auto-tracked.
func TestServeTenantAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{
		AdmitRefresh: time.Hour,
		Tenants: map[string]iatf.TenantObjective{
			"rt": {Class: 5, Objective: 10 * time.Second, Target: 0.99},
		},
	})
	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	req := DoRequest{Op: "gemm", Count: 1, A: n4, B: n4, C: n4}

	for i := 0; i < 3; i++ {
		if resp, body := post(t, ts, req, map[string]string{"X-IATF-Tenant": "rt"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("rt post %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := post(t, ts, req, map[string]string{"X-IATF-Tenant": "guest"}); resp.StatusCode != http.StatusOK {
		t.Fatal("guest post failed")
	}
	// Force one admission shed for rt.
	s.sig.Store(&admitSignal{at: time.Now(), predicted: 3 * time.Second})
	shedReq := req
	shedReq.DeadlineMs = 10
	if resp, _ := post(t, ts, shedReq, map[string]string{"X-IATF-Tenant": "rt"}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatal("forced shed did not 429")
	}

	hr, err := http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/tenants content type %q", ct)
	}
	var stats []iatf.TenantStats
	if err := json.NewDecoder(hr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	byName := map[string]iatf.TenantStats{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	rt := byName["rt"]
	if rt.Requests != 4 || rt.DeadlineHits != 3 || rt.Sheds != 1 {
		t.Fatalf("rt = %+v, want 4 requests / 3 hits / 1 shed", rt)
	}
	if rt.Class != 5 || rt.Objective != 10*time.Second {
		t.Fatalf("rt objective lost: %+v", rt)
	}
	if rt.WindowBad != 1 || rt.BurnRate <= 0 {
		t.Fatalf("rt window/burn = %d/%g, want 1 bad and positive burn", rt.WindowBad, rt.BurnRate)
	}
	if g := byName["guest"]; g.Requests != 1 || g.Objective != 0 {
		t.Fatalf("guest = %+v, want 1 request, zero objective", g)
	}
	if ss := s.TenantStats(); len(ss) != len(stats) {
		t.Fatalf("TenantStats() = %d rows, endpoint %d", len(ss), len(stats))
	}
}

// TestServeAccessLogTrace: the structured access log emits one JSON
// line per request, joined with the engine span (span id, shape, phase
// durations) and carrying the wire trace id and tenant.
func TestServeAccessLogTrace(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	_, ts := newTestServer(t, Config{
		AccessLog: logW,
		Tenants:   map[string]iatf.TenantObjective{"rt": {Class: 5}},
	})

	const traceID = "00f067aa0ba902b700f067aa0ba902b7"
	n4 := &WireOperand{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	resp, body := post(t, ts, DoRequest{
		Op: "gemm", DType: "f64", Count: 1, A: n4, B: n4, C: n4, DeadlineMs: 5000,
	}, map[string]string{
		"traceparent":   "00-" + traceID + "-00f067aa0ba902b7-01",
		"X-IATF-Tenant": "rt",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// The handler logs in a defer that can run after the response reaches
	// the client; wait for the line to land.
	var entry map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		mu.Unlock()
		if len(lines) > 0 && lines[0] != "" {
			if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
				t.Fatalf("access log line not JSON: %v: %q", err, lines[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no access log line emitted")
		}
		time.Sleep(time.Millisecond)
	}

	for field, want := range map[string]any{
		"trace":       traceID,
		"tenant":      "rt",
		"op":          "gemm",
		"dtype":       "f64",
		"shape":       "4x4x4",
		"status":      float64(http.StatusOK),
		"deadline_ms": float64(5000),
	} {
		if got := entry[field]; got != want {
			t.Fatalf("access log %s = %v, want %v", field, got, want)
		}
	}
	if id, ok := entry["span_id"].(float64); !ok || id <= 0 {
		t.Fatalf("access log span_id = %v, want > 0 (span join missing)", entry["span_id"])
	}
	phases, ok := entry["phases_us"].(map[string]any)
	if !ok || len(phases) == 0 {
		t.Fatalf("access log phases_us = %v, want per-phase durations", entry["phases_us"])
	}
	if _, ok := phases["compute"]; !ok {
		t.Fatalf("access log phases %v missing compute", phases)
	}
	// The wire phases sit beside the engine's, and together they fit in
	// the handler's elapsed time.
	wire, ok := entry["wire_us"].(map[string]any)
	if _, enc := wire["encode"]; !ok || len(wire) != 2 || !enc {
		t.Fatalf("access log wire_us = %v, want decode and encode", entry["wire_us"])
	}
	var sum float64
	for _, m := range []map[string]any{phases, wire} {
		for name, us := range m {
			v, ok := us.(float64)
			if !ok || v < 0 {
				t.Fatalf("access log phase %s = %v", name, us)
			}
			sum += v
		}
	}
	if elapsed, _ := entry["elapsed_us"].(float64); sum > elapsed {
		t.Fatalf("engine phases %v plus wire_us %v = %gµs, more than elapsed_us %g", phases, wire, sum, elapsed)
	}
	if _, ok := entry["error"]; ok {
		t.Fatalf("success line carries error: %v", entry["error"])
	}
}

// writerFunc adapts a function to io.Writer for test log capture.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestServeConcurrentLoad pushes parallel mixed-priority traffic through
// one server and requires every admitted request to complete correctly —
// the serving tier's race check (run under -race in make servestress).
func TestServeConcurrentLoad(t *testing.T) {
	eng := iatf.NewEngine(iatf.WithBatchWindow(200 * time.Microsecond))
	_, ts := newTestServer(t, Config{Engine: eng, Tenants: map[string]iatf.TenantObjective{"rt": {Class: 5}}})

	const goroutines, per = 8, 12
	const count, n = 2, 4
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			var err error
			defer func() { errs <- err }()
			for i := 0; i < per; i++ {
				scale := float64(g*per+i) + 1
				a := colMajor(count, n, n, func(m, i, j int) float64 {
					if i == j {
						return scale
					}
					return 0
				})
				b := colMajor(count, n, n, func(m, i, j int) float64 { return float64(m*n*n + j*n + i) })
				hdr := map[string]string{}
				if g%2 == 0 {
					hdr["X-IATF-Tenant"] = "rt"
				}
				resp, body := post(t, ts, DoRequest{
					Op: "gemm", DType: "f64", Alpha: 1, Beta: 0, Count: count,
					A:          &WireOperand{Rows: n, Cols: n, Data: a},
					B:          &WireOperand{Rows: n, Cols: n, Data: b},
					C:          &WireOperand{Rows: n, Cols: n, Data: make([]float64, count*n*n)},
					DeadlineMs: 10000,
				}, hdr)
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("g%d req%d: status %d: %s", g, i, resp.StatusCode, body)
					return
				}
				var out DoResponse
				if e := json.Unmarshal(body, &out); e != nil {
					err = e
					return
				}
				for k := range b {
					if math.Abs(out.Result[k]-scale*b[k]) > 1e-9 {
						err = fmt.Errorf("g%d req%d: result[%d] = %g, want %g",
							g, i, k, out.Result[k], scale*b[k])
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
