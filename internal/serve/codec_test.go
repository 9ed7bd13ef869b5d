package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iatf"
)

// overflowBody's count*rows*cols wraps a 64-bit int to 0, which matches
// the empty data.
const overflowBody = `{"op":"gemm","count":4294967296,` +
	`"a":{"rows":4294967296,"cols":1,"data":[]},` +
	`"b":{"rows":4294967296,"cols":1,"data":[]},` +
	`"c":{"rows":4294967296,"cols":1,"data":[]}}`

// hugeCountBody declares far more matrices than its data holds.
const hugeCountBody = `{"op":"gemm","dtype":"f64","count":1000000000000000000,` +
	`"a":{"rows":8,"cols":8,"data":[1,2,3]},"b":{"rows":8,"cols":8,"data":[1]},"c":{"rows":8,"cols":8,"data":[]}}`

func postRaw(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/do", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServeOperandOverflow: operand sizes whose product overflows are a
// 400 counted in Errors, not a handler panic that drops the connection.
func TestServeOperandOverflow(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postRaw(t, ts, overflowBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "overflows") {
		t.Fatalf("error body %q (err %v), want an overflow message", body, err)
	}
	if st := s.Stats(); st.Errors != 1 || st.Admitted != 0 {
		t.Fatalf("stats errors=%d admitted=%d, want 1/0", st.Errors, st.Admitted)
	}
}

// TestServeNonFiniteResult: a result JSON cannot carry is a 400 naming
// the first bad element, counted in Errors, not a 200 with an empty body.
func TestServeNonFiniteResult(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	one := func(v float64) *WireOperand { return &WireOperand{Rows: 1, Cols: 1, Data: []float64{v}} }
	resp, body := post(t, ts, DoRequest{
		Op: "gemm", DType: "f32", Alpha: 1, Count: 1, A: one(3e38), B: one(10), C: one(0),
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %q", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "result[0]") {
		t.Fatalf("error body %q (err %v), want it to name result[0]", body, err)
	}
	if st := s.Stats(); st.Errors != 1 || st.Done != 0 {
		t.Fatalf("stats errors=%d done=%d, want 1/0", st.Errors, st.Done)
	}
}

// TestAppendResponseMatchesEncodingJSON: the encoder writes what
// json.NewEncoder(w).Encode(DoResponse{…}) writes, byte for byte, at the
// edges of encoding/json's float formatting, and rejects non-finite
// results by index.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	f64 := []float64{0, negZero, 5e-324, 2.2250738585072014e-308, 1e-7, -1e-7, 1e-6, 9.99e20,
		1e21, -1e21, 1e-300, 0.1, -2.5, 123456789, math.MaxFloat64, -math.MaxFloat64}
	f32 := []float32{0, float32(negZero), math.SmallestNonzeroFloat32, 1.1754944e-38, 1e-7, -1e-7,
		1e-6, 9.99e20, 1e21, 0.1, -2.5, 16777217, math.MaxFloat32, -math.MaxFloat32}
	want := func(result []float64, elapsed int64) []byte {
		b, err := json.Marshal(DoResponse{Result: result, ElapsedUs: elapsed})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	got, err := appendResponse(nil, f64, 42)
	if w := want(f64, 42); err != nil || !bytes.Equal(got, w) {
		t.Fatalf("f64 (err %v):\n got %s\nwant %s", err, got, w)
	}
	wide := make([]float64, len(f32))
	for i, v := range f32 {
		wide[i] = float64(v)
	}
	got, err = appendResponse([]byte("stale"), f32, 7)
	if w := append([]byte("stale"), want(wide, 7)...); err != nil || !bytes.Equal(got, w) {
		t.Fatalf("f32 (err %v):\n got %s\nwant %s", err, got, w)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := appendResponse(nil, []float64{1, 2, bad, bad}, 0)
		if !errors.Is(err, errBadRequest) || !strings.Contains(err.Error(), "result[2]") {
			t.Fatalf("%v: err %v, want a bad-request error naming result[2]", bad, err)
		}
	}
}

// decodeBoth decodes body with the codec and with encoding/json.
func decodeBoth(body []byte) (got, want DoRequest, gerr, werr error) {
	werr = json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gerr = new(wireBuf).readRequest(bytes.NewReader(body), &got)
	return
}

func showRequest(r *DoRequest) string {
	return fmt.Sprintf("%+v a=%+v b=%+v c=%+v", *r, r.A, r.B, r.C)
}

// TestDecodeCoversEveryField: every JSON field of DoRequest and
// WireOperand, set alone, lands where encoding/json puts it, so the
// codec's name tables cannot drift from the struct tags.
func TestDecodeCoversEveryField(t *testing.T) {
	sample := map[reflect.Kind]string{reflect.String: `"x"`, reflect.Float64: `2.5`, reflect.Int: `7`,
		reflect.Int64: `9`, reflect.Slice: `[1.5,2]`, reflect.Pointer: `{"rows":1,"cols":2,"data":[3,4]}`}
	for _, typ := range []reflect.Type{reflect.TypeOf(DoRequest{}), reflect.TypeOf(WireOperand{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			body := fmt.Sprintf(`{%q:%s}`, name, sample[f.Type.Kind()])
			if typ.Name() == "WireOperand" {
				body = `{"b":` + body + `}`
			}
			got, want, gerr, werr := decodeBoth([]byte(body))
			if gerr != nil || werr != nil || reflect.DeepEqual(want, DoRequest{}) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: codec %s (err %v), json %s (err %v)", body, showRequest(&got), gerr, showRequest(&want), werr)
			}
		}
	}
}

// TestDecodeNestingLimit: an unknown member may nest up to
// encoding/json's depth limit and no further. (Bodies this large slow the
// fuzzer's minimizer, so they are not in its corpus.)
func TestDecodeNestingLimit(t *testing.T) {
	for _, n := range []int{maxDepth - 1, maxDepth} { // plus the top-level object
		body := []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
		_, _, gerr, werr := decodeBoth(body)
		if (gerr == nil) != (n < maxDepth) || (werr == nil) != (n < maxDepth) {
			t.Fatalf("depth %d: codec err %v, encoding/json err %v", n+1, gerr, werr)
		}
	}
}

// allocBytes is the fewest heap bytes fn allocated over three runs.
func allocBytes(fn func()) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzDoRequest holds the codec to encoding/json's decoder — the same
// accept/reject decision and, on accept, a DeepEqual DoRequest — and the
// handler to never panicking or answering 500. First, bodies declaring
// sizes far beyond their data must allocate in proportion to the body.
func FuzzDoRequest(f *testing.F) {
	s := New(Config{Engine: iatf.NewEngine()})
	h := s.Handler()
	serveBody := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/do", bytes.NewReader(body)))
		return rec.Code
	}

	for _, body := range []string{overflowBody, hugeCountBody} {
		bound := uint64(16*len(body) + 16<<10)
		if got := allocBytes(func() { serveBody([]byte(body)) }); got > bound {
			f.Fatalf("%.40s…: allocated %d bytes, bound %d", body, got, bound)
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, want, gerr, werr := decodeBoth(body)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("body %q: codec err %v, encoding/json err %v", body, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\ncodec %s\n json %s", body, showRequest(&got), showRequest(&want))
		}
		if code := serveBody(body); code == http.StatusInternalServerError {
			t.Fatalf("body %q: status 500", body)
		}
	})
}

// perfbenchBody is a request shaped like the serving benchmark's
// representative one: f32 GEMM 4×4×4, count 16, uniform values in
// [-1, 1), with the written operand's element count.
func perfbenchBody() ([]byte, []float32) {
	rng := rand.New(rand.NewSource(1))
	const count, n = 16, 4
	vals := func() []float64 {
		out := make([]float64, count*n*n)
		for i := range out {
			out[i] = float64(float32(2*rng.Float64() - 1))
		}
		return out
	}
	body, _ := json.Marshal(DoRequest{Op: "gemm", DType: "f32", TransA: "N", TransB: "N",
		Side: "L", Uplo: "L", Diag: "N", Alpha: 1, Count: count, DeadlineMs: 250,
		A: &WireOperand{Rows: n, Cols: n, Data: vals()},
		B: &WireOperand{Rows: n, Cols: n, Data: vals()},
		C: &WireOperand{Rows: n, Cols: n, Data: vals()}})
	result := make([]float32, count*n*n)
	for i := range result {
		result[i] = float32(2*rng.Float64() - 1)
	}
	return body, result
}

// BenchmarkDoCodec decodes a perfbench-shaped body and encodes a result
// of its size, with the codec and with encoding/json as the handler used
// it before.
func BenchmarkDoCodec(b *testing.B) {
	body, result := perfbenchBody()
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wb := wirePool.Get().(*wireBuf)
			var req DoRequest
			if err := wb.readRequest(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
			var err error
			if wb.out, err = appendResponse(wb.out[:0], result, 1); err != nil {
				b.Fatal(err)
			}
			putWire(wb)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req DoRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			wide := make([]float64, len(result))
			for i, v := range result {
				wide[i] = float64(v)
			}
			if err := json.NewEncoder(io.Discard).Encode(DoResponse{Result: wide, ElapsedUs: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
