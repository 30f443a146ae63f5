package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The codec below is the one the endpoints use on every line. It is a
// schema-specific replacement for encoding/json that keeps encoding/json's
// answers exactly (DESIGN.md §12):
//
//   - The decoders parse, in one pass and without reflection, the grammar
//     real traffic uses: whitespace anywhere, the schema's keys in exact
//     case and any order, integers of up to 18 digits, ASCII strings
//     without escapes, booleans, and any JSON number in a float field.
//     Every other line — escapes, non-ASCII, null, unknown, case-variant
//     or duplicate keys, fractions or exponents in integer fields, longer
//     integers, syntax errors — goes to json.Unmarshal unchanged. The fast
//     path never rejects a line: it returns what json.Unmarshal would, or
//     defers.
//   - The encoders append the bytes json.Marshal produces: a string that
//     needs escaping is marshalled by encoding/json alone, floats follow its
//     'f'/'e' rule, and a report with a non-finite float is handed to
//     json.Marshal whole, so its error is encoding/json's.
//
// encoding/json stays the reference: the fuzz targets compare both
// directions against it.

// AppendRequest appends the JSON encoding of r to dst: the bytes
// json.Marshal(r) produces.
func AppendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, '{')
	if r.V != 0 {
		dst = strconv.AppendInt(appendKey(dst, `"v":`), int64(r.V), 10)
	}
	if r.ID != "" {
		dst = appendString(appendKey(dst, `"id":`), r.ID)
	}
	if r.Name != "" {
		dst = appendString(appendKey(dst, `"name":`), r.Name)
	}
	dst = strconv.AppendInt(appendKey(dst, `"memory":`), r.Memory, 10)
	dst = appendKey(dst, `"buffers":`)
	if r.Buffers == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, b := range r.Buffers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"start":`...), b.Start, 10)
			dst = strconv.AppendInt(append(dst, `,"end":`...), b.End, 10)
			dst = strconv.AppendInt(append(dst, `,"size":`...), b.Size, 10)
			if b.Align != 0 {
				dst = strconv.AppendInt(append(dst, `,"align":`...), b.Align, 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.MaxSteps != 0 {
		dst = strconv.AppendInt(append(dst, `,"max_steps":`...), r.MaxSteps, 10)
	}
	if r.TimeoutMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), r.TimeoutMS, 10)
	}
	if r.Priority != "" {
		dst = appendString(append(dst, `,"priority":`...), r.Priority)
	}
	if r.Tenant != "" {
		dst = appendString(append(dst, `,"tenant":`...), r.Tenant)
	}
	return append(dst, '}')
}

// AppendResponse appends the JSON encoding of r to dst: the bytes
// json.Marshal(r) produces, or dst and json.Marshal's error when a float
// field is not finite.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if !finite(r.QueueWaitMS) || !finite(r.ElapsedMS) || !finite(r.RetryAfterMS) {
		b, err := json.Marshal(*r)
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	dst = strconv.AppendInt(append(dst, `{"v":`...), int64(r.V), 10)
	if r.ID != "" {
		dst = appendString(append(dst, `,"id":`...), r.ID)
	}
	dst = appendString(append(dst, `,"outcome":`...), r.Outcome)
	if r.ErrorCode != "" {
		dst = appendString(append(dst, `,"error_code":`...), r.ErrorCode)
	}
	if r.Winner != "" {
		dst = appendString(append(dst, `,"winner":`...), r.Winner)
	}
	if len(r.Offsets) > 0 {
		dst = appendInts(append(dst, `,"offsets":`...), r.Offsets)
	}
	if len(r.Spilled) > 0 {
		dst = appendInts(append(dst, `,"spilled":`...), r.Spilled)
	}
	if r.SpillCost != 0 {
		dst = strconv.AppendInt(append(dst, `,"spill_cost":`...), r.SpillCost, 10)
	}
	if r.LowerBound != 0 {
		dst = strconv.AppendInt(append(dst, `,"lower_bound":`...), r.LowerBound, 10)
	}
	if r.Memory != 0 {
		dst = strconv.AppendInt(append(dst, `,"memory":`...), r.Memory, 10)
	}
	if len(r.SkippedByBreaker) > 0 {
		dst = append(dst, `,"skipped_by_breaker":[`...)
		for i, s := range r.SkippedByBreaker {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, s)
		}
		dst = append(dst, ']')
	}
	if r.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	if r.Deduped {
		dst = append(dst, `,"deduped":true`...)
	}
	if r.HintReplayed {
		dst = append(dst, `,"hint_replayed":true`...)
	}
	if r.QueueWaitMS != 0 {
		dst = appendFloat(append(dst, `,"queue_wait_ms":`...), r.QueueWaitMS)
	}
	if r.ElapsedMS != 0 {
		dst = appendFloat(append(dst, `,"elapsed_ms":`...), r.ElapsedMS)
	}
	if r.RetryAfterMS != 0 {
		dst = appendFloat(append(dst, `,"retry_after_ms":`...), r.RetryAfterMS)
	}
	if r.DegradedByBrownout {
		dst = append(dst, `,"degraded_by_brownout":true`...)
	}
	if r.Error != "" {
		dst = appendString(append(dst, `,"error":`...), r.Error)
	}
	return append(dst, '}'), nil
}

// appendKey appends a quoted key and its colon, preceded by a comma unless
// it is the object's first member.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied; anything else is marshalled by
// encoding/json, which owns the escaping rules (HTML-safe <, >, &, control
// characters, invalid UTF-8, U+2028/U+2029).
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendInts[T int | int64](dst []byte, xs []T) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendFloat appends a finite f as encoding/json does: 'f' format, or 'e'
// for magnitudes below 1e-6 or from 1e21, with a two-digit negative
// exponent trimmed to one (e-09 → e-9).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// DecodeRequest decodes one request line into *r, which must be the zero
// Request. It leaves in *r, and returns, exactly what json.Unmarshal(line,
// r) would.
func DecodeRequest(line []byte, r *Request) error {
	if req, ok := decodeRequest(line); ok {
		*r = req
		return nil
	}
	var req Request // declared here so only a deferred line pays its heap copy
	err := json.Unmarshal(line, &req)
	*r = req
	return err
}

// DecodeResponse decodes one report line into *r, which must be the zero
// Response. It leaves in *r, and returns, exactly what json.Unmarshal(line,
// r) would.
func DecodeResponse(line []byte, r *Response) error {
	if resp, ok := decodeResponse(line); ok {
		*r = resp
		return nil
	}
	var resp Response
	err := json.Unmarshal(line, &resp)
	*r = resp
	return err
}

// decodeRequest is the fast path of DecodeRequest; false defers the line.
func decodeRequest(line []byte) (r Request, ok bool) {
	d := decoder{b: line}
	if !d.eat('{') {
		return r, false
	}
	var seen uint16
	for first := true; !d.eat('}'); first = false {
		if !first && !d.eat(',') {
			return r, false
		}
		key, ok := d.key()
		if !ok {
			return r, false
		}
		var bit uint16
		switch string(key) {
		case "v":
			bit = 1 << 0
			r.V, ok = intValue[int](&d)
		case "id":
			bit = 1 << 1
			r.ID, ok = d.str()
		case "name":
			bit = 1 << 2
			r.Name, ok = d.str()
		case "memory":
			bit = 1 << 3
			r.Memory, ok = d.int()
		case "buffers":
			bit = 1 << 4
			r.Buffers, ok = d.buffers()
		case "max_steps":
			bit = 1 << 5
			r.MaxSteps, ok = d.int()
		case "timeout_ms":
			bit = 1 << 6
			r.TimeoutMS, ok = d.int()
		case "priority":
			bit = 1 << 7
			r.Priority, ok = d.str()
		case "tenant":
			bit = 1 << 8
			r.Tenant, ok = d.str()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return r, false
		}
		seen |= bit
	}
	return r, d.end()
}

// decodeResponse is the fast path of DecodeResponse; false defers the line.
func decodeResponse(line []byte) (r Response, ok bool) {
	d := decoder{b: line}
	if !d.eat('{') {
		return r, false
	}
	var seen uint32
	for first := true; !d.eat('}'); first = false {
		if !first && !d.eat(',') {
			return r, false
		}
		key, ok := d.key()
		if !ok {
			return r, false
		}
		var bit uint32
		switch string(key) {
		case "v":
			bit = 1 << 0
			r.V, ok = intValue[int](&d)
		case "id":
			bit = 1 << 1
			r.ID, ok = d.str()
		case "outcome":
			bit = 1 << 2
			r.Outcome, ok = d.str()
		case "error_code":
			bit = 1 << 3
			r.ErrorCode, ok = d.str()
		case "winner":
			bit = 1 << 4
			r.Winner, ok = d.str()
		case "offsets":
			bit = 1 << 5
			r.Offsets, ok = intArray[int64](&d)
		case "spilled":
			bit = 1 << 6
			r.Spilled, ok = intArray[int](&d)
		case "spill_cost":
			bit = 1 << 7
			r.SpillCost, ok = d.int()
		case "lower_bound":
			bit = 1 << 8
			r.LowerBound, ok = d.int()
		case "memory":
			bit = 1 << 9
			r.Memory, ok = d.int()
		case "skipped_by_breaker":
			bit = 1 << 10
			r.SkippedByBreaker, ok = d.strs()
		case "cache_hit":
			bit = 1 << 11
			r.CacheHit, ok = d.bool()
		case "deduped":
			bit = 1 << 12
			r.Deduped, ok = d.bool()
		case "hint_replayed":
			bit = 1 << 13
			r.HintReplayed, ok = d.bool()
		case "queue_wait_ms":
			bit = 1 << 14
			r.QueueWaitMS, ok = d.float()
		case "elapsed_ms":
			bit = 1 << 15
			r.ElapsedMS, ok = d.float()
		case "retry_after_ms":
			bit = 1 << 16
			r.RetryAfterMS, ok = d.float()
		case "degraded_by_brownout":
			bit = 1 << 17
			r.DegradedByBrownout, ok = d.bool()
		case "error":
			bit = 1 << 18
			r.Error, ok = d.str()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return r, false
		}
		seen |= bit
	}
	return r, d.end()
}

// decoder is a cursor over one line. Every method skips the whitespace
// before its token and returns false, leaving the line to encoding/json,
// on anything outside the fast-path grammar.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) ws() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// eat consumes the byte c if it is the next token.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// key consumes a member's key and its colon.
func (d *decoder) key() ([]byte, bool) {
	k, ok := d.rawStr()
	return k, ok && d.eat(':')
}

// rawStr consumes a string of printable ASCII without escapes and returns
// its contents, which alias the line.
func (d *decoder) rawStr() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	rest := d.b[d.i:]
	for i, c := range rest {
		if c == '"' {
			d.i += i + 1
			return rest[:i], true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) str() (string, bool) {
	s, ok := d.rawStr()
	return string(s), ok
}

func (d *decoder) bool() (bool, bool) {
	d.ws()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// int consumes an integer of at most 18 digits, which cannot overflow. A
// fraction or exponent after it is left in place, so the caller's next
// token check defers the line.
func (d *decoder) int() (int64, bool) {
	d.ws()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	if i < len(b) && b[i] == '0' {
		i++ // a leading zero is the whole integer part
	} else {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n = n*10 + int64(b[i]-'0')
		}
	}
	if i == start || i-start > 18 {
		return 0, false
	}
	if neg {
		n = -n
	}
	d.i = i
	return n, true
}

// intValue is d.int narrowed to T, deferring on overflow.
func intValue[T int | int64](d *decoder) (T, bool) {
	n, ok := d.int()
	return T(n), ok && int64(T(n)) == n
}

// float consumes any JSON number and converts it as encoding/json does.
func (d *decoder) float() (float64, bool) {
	d.ws()
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		return 0, false
	}
	d.i = i
	return f, true
}

// buffers consumes the request's buffer array. The slice is allocated once:
// in a line the fast path accepts every buffer object lies before the
// first ']' and opens with the only '{' it contains, so counting them sizes
// it exactly. Every object takes at least three bytes with its comma, which
// bounds the count on hostile lines.
func (d *decoder) buffers() ([]Buffer, bool) {
	if !d.eat('[') {
		return nil, false
	}
	region := d.b[d.i:]
	if end := bytes.IndexByte(region, ']'); end >= 0 {
		region = region[:end]
	}
	bs := make([]Buffer, 0, min(bytes.Count(region, []byte{'{'}), (len(region)+1)/3))
	for first := true; !d.eat(']'); first = false {
		if !first && !d.eat(',') {
			return nil, false
		}
		b, ok := d.buffer()
		if !ok {
			return nil, false
		}
		bs = append(bs, b)
	}
	return bs, true
}

func (d *decoder) buffer() (b Buffer, ok bool) {
	if !d.eat('{') {
		return b, false
	}
	var seen uint8
	for first := true; !d.eat('}'); first = false {
		if !first && !d.eat(',') {
			return b, false
		}
		key, ok := d.key()
		if !ok {
			return b, false
		}
		var bit uint8
		var field *int64
		switch string(key) {
		case "start":
			bit, field = 1<<0, &b.Start
		case "end":
			bit, field = 1<<1, &b.End
		case "size":
			bit, field = 1<<2, &b.Size
		case "align":
			bit, field = 1<<3, &b.Align
		default:
			return b, false
		}
		if seen&bit != 0 {
			return b, false
		}
		seen |= bit
		if *field, ok = d.int(); !ok {
			return b, false
		}
	}
	return b, true
}

// intArray consumes an array of integers, sized like buffers: one more
// element than there are commas before the first ']', at most one per two
// bytes.
func intArray[T int | int64](d *decoder) ([]T, bool) {
	if !d.eat('[') {
		return nil, false
	}
	region := d.b[d.i:]
	if end := bytes.IndexByte(region, ']'); end >= 0 {
		region = region[:end]
	}
	xs := make([]T, 0, min(bytes.Count(region, []byte{','})+1, (len(region)+1)/2))
	for first := true; !d.eat(']'); first = false {
		if !first && !d.eat(',') {
			return nil, false
		}
		x, ok := intValue[T](d)
		if !ok {
			return nil, false
		}
		xs = append(xs, x)
	}
	return xs, true
}

func (d *decoder) strs() ([]string, bool) {
	if !d.eat('[') {
		return nil, false
	}
	ss := []string{}
	for first := true; !d.eat(']'); first = false {
		if !first && !d.eat(',') {
			return nil, false
		}
		s, ok := d.str()
		if !ok {
			return nil, false
		}
		ss = append(ss, s)
	}
	return ss, true
}
