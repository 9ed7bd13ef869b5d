package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
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

// numberTokens returns JSON number tokens for each of the decoder's
// float conversions: the shortest 'f' and 'e' forms encoding/json writes
// for float64 and widened float32 values, digit strings of 1–20 digits
// with the decimal point at every position, exact halfway cases between
// adjacent doubles and their neighbours, and the edges of the exact paths.
func numberTokens(rng *rand.Rand) []string {
	toks := []string{
		"0", "-0", "0.0", "-0.0", "0e5", "-0e-400", "0.000001234", "-0.000001234", "1e-19", "1e-20",
		"1e22", "-1e22", "1e-22", "1e23", "1e-23", "1e-400", "-1e-400", "1e400", "-1e400", "1E+2",
		"1e10000000000000000000", "9007199254740991", "9007199254740992", "9007199254740993",
		"-9007199254740993", "9007199254740993.0", "9007199254740994", "90071992547409930e-1",
		"9007199254740993e-1", "0.9007199254740993", "9999999999999999999", "0.9999999999999999999",
		"9.999999999999999999", "99999999999999999999", "1234567890123456789", "12345678901234567890",
		"1.234567890123456789", "1.2345678901234567890", "1.2345678901234567891",
		"1.23456789012345678900001", "12345678901234567890e-5", "123456789012345678900e-7",
		"0.12345678901234567890123", "18446744073709551615", "18446744073709551616",
		"1.7976931348623157e308", "1.7976931348623159e308", "4.9e-324", "2.4703282292062327e-324",
		"2.2250738585072014e-308", "2.2250738585072011e-308", "100000000000000000000000",
		"0.10000000149011612",
	}
	forms := func(v float64) {
		toks = append(toks, strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(v, 'e', -1, 64))
	}
	for i := 0; i < 4000; i++ {
		u := 2*rng.Float64() - 1 // the serving benchmark's values
		forms(u)
		forms(float64(float32(u)))
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			forms(f)
		}
		if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			forms(float64(f))
		}
	}
	// Each digit string also with two zeros appended: zeros past the 19th
	// significant digit scale the integer part but truncate nothing.
	for nd := 1; nd <= 20; nd++ {
		for i := 0; i < 40; i++ {
			digits := make([]byte, nd, nd+2)
			for j := range digits {
				digits[j] = byte('0' + rng.Intn(10))
			}
			for _, digits := range [][]byte{digits, append(digits, "00"...)} {
				for p := 0; p <= len(digits); p++ {
					whole := strings.TrimLeft(string(digits[:p]), "0")
					if whole == "" {
						whole = "0"
					}
					tok := whole
					if p < len(digits) {
						tok += "." + string(digits[p:])
					}
					toks = append(toks, tok, tok+"e"+strconv.Itoa(rng.Intn(51)-25))
				}
			}
		}
	}
	// Halfway cases: the exact midpoint between f and the next double up,
	// written in full, and its neighbours one unit away in its last
	// digit. Half of them lie between 2^40 and 2^64; those in
	// [2^49, 2^53) fit in 19 digits and take the division path.
	for i := 0; i < 4000; i++ {
		e := rng.Intn(140) - 70
		if i%2 == 0 {
			e = 40 + rng.Intn(24)
		}
		f := math.Ldexp(1+rng.Float64(), e)
		mid := new(big.Float).SetPrec(128).SetFloat64(f)
		mid.Add(mid, big.NewFloat((math.Nextafter(f, math.Inf(1))-f)/2))
		txt := strings.TrimSuffix(strings.TrimRight(mid.Text('f', 200), "0"), ".")
		toks = append(toks, txt)
		digits, frac := txt, 0
		if dot := strings.IndexByte(txt, '.'); dot >= 0 {
			digits, frac = txt[:dot]+txt[dot+1:], len(txt)-dot-1
		}
		for _, delta := range []int64{-1, 1} {
			v, _ := new(big.Int).SetString(digits, 10)
			toks = append(toks, v.Add(v, big.NewInt(delta)).String()+"e-"+strconv.Itoa(frac))
		}
	}
	return toks
}

// TestNumberMatchesParseFloat: the decoder's scan and float conversion of
// every generated token give the bits strconv.ParseFloat gives, and its
// range error, and each of the three conversions is exercised. The scan
// stops at the token's end whatever byte follows it.
func TestNumberMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ends := []string{",", "]", " ", "}", "/", ":", "\xff"} // '/' and ':' border the digits
	var fast, quo, slow int
	for _, tok := range numberTokens(rng) {
		for _, tok := range []string{tok, "-" + strings.TrimPrefix(tok, "-")} {
			d := decoder{s: []byte(tok + ends[rng.Intn(len(ends))] + "12345678")}
			n, err := d.number()
			if err != nil || d.i != len(tok) {
				t.Fatalf("%s: scanned %d of %d bytes of %q, err %v", tok, d.i, len(tok), d.s, err)
			}
			got, gerr := n.float()
			want, werr := strconv.ParseFloat(tok, 64)
			if (gerr == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: got %v (%#x, err %v), ParseFloat %v (%#x, err %v)",
					tok, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
			}
			switch {
			case n.mant <= 1<<53 && -22 <= n.exp && n.exp <= 22:
				fast++
			case !n.trunc && -19 <= n.exp && n.exp < 0:
				quo++
			default:
				slow++
			}
		}
	}
	if fast < 1000 || quo < 1000 || slow < 1000 {
		t.Fatalf("conversions taken: %d fast path, %d division, %d strconv; want 1000 of each", fast, quo, slow)
	}
	// quoPow10 alone, on 20-digit significands the scanner never hands
	// it: a tenth off a midpoint between doubles near 2^60 moves the
	// quotient by less than its 11 spare bits resolve, so the remainder
	// alone breaks the tie.
	for i := 0; i < 100; i++ {
		mid := 1<<60 + uint64(2*rng.Intn(1<<20)+1)<<7
		for _, m := range []uint64{10*mid - 1, 10 * mid, 10*mid + 1} {
			tok := strconv.FormatUint(m/10, 10) + "." + strconv.FormatUint(m%10, 10)
			want, _ := strconv.ParseFloat(tok, 64)
			if got := quoPow10(m, 1); got != want {
				t.Fatalf("quoPow10(%d, 1) = %v, ParseFloat(%s) = %v", m, got, tok, want)
			}
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

// perfbenchBody is a GEMM request shaped like one of the serving
// benchmark's: n×n×n, count matrices per operand, values uniform in
// [-1, 1) of element type T, with a result of the written operand's size.
func perfbenchBody[T float32 | float64](dtype string, n, count int) ([]byte, []T) {
	rng := rand.New(rand.NewSource(1))
	vals := func() []float64 {
		out := make([]float64, count*n*n)
		for i := range out {
			out[i] = float64(T(2*rng.Float64() - 1))
		}
		return out
	}
	body, _ := json.Marshal(DoRequest{Op: "gemm", DType: dtype, TransA: "N", TransB: "N",
		Side: "L", Uplo: "L", Diag: "N", Alpha: 1, Count: count, DeadlineMs: 250,
		A: &WireOperand{Rows: n, Cols: n, Data: vals()},
		B: &WireOperand{Rows: n, Cols: n, Data: vals()},
		C: &WireOperand{Rows: n, Cols: n, Data: vals()}})
	result := make([]T, count*n*n)
	for i := range result {
		result[i] = T(2*rng.Float64() - 1)
	}
	return body, result
}

// BenchmarkDoCodec decodes perfbench-shaped bodies and encodes a result
// of their size, with the codec and with encoding/json as the handler
// used it before: f32 4×4×4 (count 16) and f64 8×8×8 (count 8). In
// both, as in the serving benchmark's traffic, about two thirds of the
// numbers take the decoder's fast path and the rest its division path.
func BenchmarkDoCodec(b *testing.B) {
	f32, f32Result := perfbenchBody[float32]("f32", 4, 16)
	f64, f64Result := perfbenchBody[float64]("f64", 8, 8)
	benchCodec(b, "f32_4x4x4", f32, f32Result)
	benchCodec(b, "f64_8x8x8", f64, f64Result)
}

func benchCodec[T float32 | float64](b *testing.B, name string, body []byte, result []T) {
	b.Run(name+"/codec", func(b *testing.B) {
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
	b.Run(name+"/encoding_json", func(b *testing.B) {
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
