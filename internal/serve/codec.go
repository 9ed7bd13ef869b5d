package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /v1/do wire codec. The decoder walks the body once, parsing data
// elements straight into pooled memory; for every body within
// MaxBodyBytes it accepts exactly what json.NewDecoder(body).Decode
// accepts, into an equal DoRequest (FuzzDoRequest checks both). The
// encoder writes the bytes json.NewEncoder(w).Encode(DoResponse{…}) would.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// maxPooled is the largest body whose buffers (which grow with it) go
// back to the pool, so one outsized request does not pin its memory.
const maxPooled = 1 << 20

// wireBuf is one request's codec state, reused across requests.
type wireBuf struct {
	body bytes.Buffer
	mem  [3][]float64 // operand a, b and c's data memory; see decoder.data
	out  []byte       // the response body
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func putWire(wb *wireBuf) {
	if wb.body.Cap() <= maxPooled {
		wirePool.Put(wb)
	}
}

// readRequest reads r to EOF and decodes the body into req. The
// operands' data point into wb and stay valid until wb is reused.
func (wb *wireBuf) readRequest(r io.Reader, req *DoRequest) error {
	wb.body.Reset()
	if _, err := wb.body.ReadFrom(r); err != nil {
		return err
	}
	d := decoder{s: wb.body.Bytes(), wb: wb}
	switch d.next() {
	case '{':
		return d.request(req)
	case 'n':
		return d.literal("null") // decodes to nothing, as in encoding/json
	}
	// Any other first value is a syntax or type error; what follows the
	// first value is never read.
	return d.fail("a JSON object")
}

// decoder walks one body; i is the offset of the next unread byte.
type decoder struct {
	s  []byte
	i  int
	wb *wireBuf
}

// The member names, in the order the decoders below index them.
var (
	reqFields = []string{"op", "dtype", "trans_a", "trans_b", "side", "uplo", "diag",
		"alpha", "beta", "count", "deadline_ms", "priority", "a", "b", "c"}
	operandFields = []string{"rows", "cols", "data"}
)

func (d *decoder) request(req *DoRequest) error {
	scalars := [...]any{&req.Op, &req.DType, &req.TransA, &req.TransB, &req.Side, &req.Uplo, &req.Diag,
		&req.Alpha, &req.Beta, &req.Count, &req.DeadlineMs, &req.Priority}
	ops := [...]**WireOperand{&req.A, &req.B, &req.C}
	d.i++ // '{'
	for first := true; ; first = false {
		f, more, err := d.member(first, reqFields)
		if !more || err != nil {
			return err
		}
		switch {
		case f < 0:
			err = d.skip(2)
		case f < len(scalars):
			err = d.scalar(scalars[f])
		default:
			err = d.operand(f-len(scalars), ops[f-len(scalars)])
		}
		if err != nil {
			return err
		}
	}
}

// operand decodes operand k. Like encoding/json, null clears the
// pointer, and an object fills a fresh operand or merges into the one a
// repeated key already set.
func (d *decoder) operand(k int, dst **WireOperand) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '{':
	default:
		return d.fail("an operand object")
	}
	if *dst == nil {
		*dst = new(WireOperand)
		d.wb.mem[k] = d.wb.mem[k][:0]
	}
	o := *dst
	d.i++
	for first := true; ; first = false {
		f, more, err := d.member(first, operandFields)
		if !more || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.scalar(&o.Rows)
		case 1:
			err = d.scalar(&o.Cols)
		case 2:
			err = d.data(k, &o.Data)
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// data decodes a data array into operand k's memory with the slice
// semantics of encoding/json, which a repeated "data" key exposes: an
// array overwrites the previous one's elements in place, a null element
// keeps the value already there (0 past anything written), and an empty
// array or a null starts over.
func (d *decoder) data(k int, dst *[]float64) error {
	mem := d.wb.mem[k]
	switch d.next() {
	case 'n':
		*dst, d.wb.mem[k] = nil, mem[:0]
		return d.literal("null")
	case '[':
	default:
		return d.fail("an array")
	}
	d.i++
	n := 0
	for ; ; n++ {
		more, err := d.step(n == 0, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == len(mem) {
			mem = append(mem, 0)
		}
		if err := d.float(&mem[n]); err != nil {
			return err
		}
	}
	*dst, d.wb.mem[k] = mem[:n], mem
	if n == 0 { // a fresh empty slice, as encoding/json makes
		*dst, d.wb.mem[k] = []float64{}, mem[:0]
	}
	return nil
}

// scalar decodes a string, float or integer member into dst, a *string,
// *float64, *int or *int64. null leaves dst as it is; a fraction, an
// exponent or an out-of-range value in an integer is an error, as in
// encoding/json.
func (d *decoder) scalar(dst any) error {
	if p, ok := dst.(*float64); ok {
		return d.float(p)
	}
	c := d.next()
	if c == 'n' {
		return d.literal("null")
	}
	if p, ok := dst.(*string); ok {
		if c != '"' {
			return d.fail("a string")
		}
		s, err := d.quoted()
		if err == nil {
			*p = string(s)
		}
		return err
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	switch p := dst.(type) {
	case *int64:
		*p, err = strconv.ParseInt(string(n.tok), 10, 64)
	case *int:
		var v int64
		v, err = strconv.ParseInt(string(n.tok), 10, strconv.IntSize)
		*p = int(v)
	}
	return err
}

// float decodes a number into dst; null leaves dst as it is.
func (d *decoder) float(dst *float64) error {
	if d.next() == 'n' {
		return d.literal("null")
	}
	n, err := d.number()
	if err == nil {
		*dst, err = n.float()
	}
	return err
}

// member steps to the next member of an object and past its key and
// colon, returning the key's index in names — an exact match first, then
// a case-insensitive one, as encoding/json matches struct fields — or -1.
// more is false at the closing brace; first marks the member after '{'.
func (d *decoder) member(first bool, names []string) (f int, more bool, err error) {
	if more, err = d.step(first, '}'); !more || err != nil {
		return -1, more, err
	}
	if d.next() != '"' {
		return -1, false, d.fail("an object key")
	}
	key, err := d.quoted()
	if err != nil {
		return -1, false, err
	}
	if d.next() != ':' {
		return -1, false, d.fail("':'")
	}
	d.i++
	for i, n := range names {
		if string(key) == n {
			return i, true, nil
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i, true, nil
		}
	}
	return -1, true, nil
}

// step steps to the next member or element of an object or array: it
// consumes the closing byte, reporting false, or, after the first entry,
// the comma before the next one.
func (d *decoder) step(first bool, closing byte) (more bool, err error) {
	switch c := d.next(); {
	case c == closing:
		d.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	}
	return false, d.fail("',' or '" + string(closing) + "'")
}

// skip validates and steps over the value of an unknown member; depth is
// the nesting depth the value has if it is an object or array.
func (d *decoder) skip(depth int) error {
	switch c := d.next(); c {
	case '{', '[':
		if depth > maxDepth {
			return errors.New("exceeded max depth")
		}
		d.i++
		for first := true; ; first = false {
			var more bool
			var err error
			if c == '{' {
				_, more, err = d.member(first, nil)
			} else {
				more, err = d.step(first, ']')
			}
			if !more || err != nil {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.quoted()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// quoted steps over the string at d.i and returns its contents: the
// body's own bytes when they hold no escape, control or non-ASCII byte,
// else encoding/json's unquoting of the token, which also rejects what
// the grammar forbids and replaces invalid UTF-8.
func (d *decoder) quoted() ([]byte, error) {
	start, plain := d.i, true
	for d.i++; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return d.s[start+1 : d.i-1], nil
			}
			var s string
			err := json.Unmarshal(d.s[start:d.i], &s)
			return []byte(s), err
		case c == '\\':
			plain = false
			d.i++ // the escaped byte
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, d.fail("a closing quote")
}

// num is a scanned JSON number: its text, and its value as
// ±mant·10^exp, where mant holds the first 19 significant digits and
// trunc reports a nonzero digit after them.
type num struct {
	tok   []byte
	mant  uint64
	exp   int
	neg   bool
	trunc bool
}

// number steps over the JSON number at d.i and returns it.
func (d *decoder) number() (n num, err error) {
	start := d.i
	n.neg = d.skipByte('-')
	if !d.skipByte('0') && !d.digits(&n, false) {
		return n, d.fail("a number")
	}
	if d.skipByte('.') && !d.digits(&n, true) {
		return n, d.fail("a digit")
	}
	if d.skipByte('e') || d.skipByte('E') {
		neg := !d.skipByte('+') && d.skipByte('-')
		x, first := 0, d.i
		for ; d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9'; d.i++ {
			if x < 10000 { // past any exponent a float64 can use; keeps x from overflowing
				x = x*10 + int(d.s[d.i]-'0')
			}
		}
		if d.i == first {
			return n, d.fail("a digit")
		}
		if neg {
			x = -x
		}
		n.exp += x
	}
	n.tok = d.s[start:d.i]
	return n, nil
}

// digits steps over a run of decimal digits, reporting whether there was
// one, and folds them into n: the integer part's (frac false) or the
// fraction's. Leading zeros leave mant at 0. Once mant holds 19 digits
// (mant ≥ 10^18), an integer digit scales exp instead and a nonzero
// digit sets trunc.
func (d *decoder) digits(n *num, frac bool) bool {
	s, start, m := d.s, d.i, n.mant
	i := start
	for ; i < len(s) && m < 1e18; i++ {
		c := s[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
	}
	if frac {
		n.exp -= i - start
	}
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			break
		}
		if !frac {
			n.exp++
		}
		n.trunc = n.trunc || c != 0
	}
	n.mant, d.i = m, i
	return i > start
}

// float returns the float64 nearest n, ties to even, or ParseFloat's
// range error: bit for bit what strconv.ParseFloat(string(n.tok), 64)
// returns. Two exact paths cover the numbers encoding/json writes for
// float32 and float64 values of moderate size; anything else is parsed
// by strconv.
func (n *num) float() (float64, error) {
	if n.mant <= 1<<53 && -22 <= n.exp && n.exp <= 22 {
		// Clinger's fast path: mant and 10^|exp| are exact doubles, so
		// the one IEEE multiply or divide rounds the exact value once.
		f := float64(n.mant)
		if n.neg {
			f = -f
		}
		if n.exp < 0 {
			return f / pow10f[-n.exp], nil
		}
		return f * pow10f[n.exp], nil
	}
	if !n.trunc && -19 <= n.exp && n.exp < 0 {
		f := quoPow10(n.mant, -n.exp)
		if n.neg {
			f = -f
		}
		return f, nil
	}
	return strconv.ParseFloat(string(n.tok), 64)
}

// pow10f holds the powers of ten that are exact float64 values.
var pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow10u holds the powers of ten below 2^64.
var pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// quoPow10 returns m/10^k rounded to nearest, ties to even, for m > 0
// and 1 ≤ k ≤ 19; the quotient then lies in [10^-19, 2^64), well inside
// float64's normal range. Both operands are shifted until their top bits
// are set, and a 128-by-64-bit division yields the quotient's top 64
// bits exactly: the top 53 are the significand, and the other 11 with
// the remainder decide the rounding.
func quoPow10(m uint64, k int) float64 {
	lm, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(pow10u[k])
	m, div := m<<lm, pow10u[k]<<ld
	// The quotient of (hi:lo) = m·2^64 by div lies in [2^63, 2^64) when
	// m < div; otherwise m·2^63 does, and bits.Div64 needs hi < div.
	hi, lo, exp := m, uint64(0), ld-lm-64
	if m >= div {
		hi, lo, exp = m>>1, m<<63, exp+1
	}
	q, r := bits.Div64(hi, lo, div)
	// m/10^k = (q + r/div)·2^exp, with q's top bit set.
	mant, low := q>>11, q&(1<<11-1)
	if low > 1<<10 || low == 1<<10 && (r != 0 || mant&1 != 0) {
		mant++
		if mant == 1<<53 {
			mant, exp = mant>>1, exp+1
		}
	}
	// mant·2^(exp+11), with mant in [2^52, 2^53), is 1.f·2^(exp+63).
	return math.Float64frombits(uint64(exp+63+1023)<<52 | mant&(1<<52-1))
}

// skipByte steps over c if it is next, reporting whether it was.
func (d *decoder) skipByte(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) literal(lit string) error {
	if len(d.s)-d.i < len(lit) || string(d.s[d.i:d.i+len(lit)]) != lit {
		return d.fail(lit)
	}
	d.i += len(lit)
	return nil
}

// next skips whitespace and returns the byte at d.i, 0 at the end.
func (d *decoder) next() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) fail(want string) error {
	if d.i >= len(d.s) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("offset %d: want %s, found %q", d.i, want, d.s[d.i])
}

// appendResponse appends the DoResponse body for result — the bytes
// encoding/json writes for it, newline included — formatting straight
// from the element type. JSON has no NaN or ±Inf, so a non-finite
// element is an error naming the first one.
func appendResponse[T float32 | float64](out []byte, result []T, elapsedUs int64) ([]byte, error) {
	out = append(out, `{"result":[`...)
	for i, v := range result {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return out, fmt.Errorf("%w: result[%d] is %v, which JSON cannot carry", errBadRequest, i, f)
		}
		if i > 0 {
			out = append(out, ',')
		}
		// encoding/json's float64 form: the shortest 'f' text, or 'e'
		// outside [1e-6, 1e21) with a one-digit exponent unpadded.
		format := byte('f')
		if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
			format = 'e'
		}
		out = strconv.AppendFloat(out, f, format, -1, 64)
		if n := len(out); format == 'e' && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
	}
	out = append(out, `],"elapsed_us":`...)
	out = strconv.AppendInt(out, elapsedUs, 10)
	return append(out, "}\n"...), nil
}
