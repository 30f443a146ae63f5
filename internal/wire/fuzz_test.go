package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWire throws arbitrary bytes at request decoding — the exact
// operation telamallocd performs on every untrusted line it reads — with
// encoding/json as the oracle: DecodeRequest accepts exactly the lines
// json.Unmarshal accepts, with the same error, and decodes them to
// reflect.DeepEqual values (nil and empty buffers are told apart); its fast
// path alone never accepts a line json.Unmarshal rejects or decodes one
// differently; and AppendRequest encodes every decoded request to
// json.Marshal's bytes, a fixed point of decode-then-encode.
func FuzzWire(f *testing.F) {
	f.Add([]byte(`{"memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`))
	f.Add([]byte(`{"v":1,"id":"a","memory":8,"buffers":[],"priority":"interactive","tenant":"t"}`))
	f.Add([]byte(`{"priority":" ","tenant":"` + string(bytes.Repeat([]byte("x"), 64)) + `"}`))
	f.Add([]byte(`{"memory":-1,"buffers":[{"start":9,"end":0,"size":-5,"align":3}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	for _, line := range requestSeeds {
		f.Add([]byte(line))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		checkRequestLine(t, line)
	})
}

// FuzzWireResponse is FuzzWire for report lines: DecodeResponse against
// json.Unmarshal (offsets, spilled and skipped_by_breaker nil versus empty
// included), and AppendResponse against json.Marshal.
func FuzzWireResponse(f *testing.F) {
	for _, line := range responseSeeds {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkResponseLine(t, line)
	})
}

// requestSeeds covers the grammar the fast path parses and each way a line
// leaves it for encoding/json.
var requestSeeds = []string{
	string(AppendRequest(nil, hotRequest(4))),
	`{"v": 1, "id": "r1", "name": "m", "memory": 64, "buffers": [{"start": 0, "end": 4, "size": 8, "align": 4}], "max_steps": 9, "timeout_ms": 3, "priority": "batch", "tenant": "t"}`,
	" \t{\r\n\"memory\"\n:\t8 , \"buffers\" : [ { \"size\" : 4 , \"end\" : 4 , \"start\" : 0 } ] }\r\n",
	`{"id":"a\"b","memory":8,"buffers":[]}`,
	`{"id":"\u00e9t\u00e9","memory":8}`,
	`{"name":"été","memory":8}`,
	`{"name":"<&>","memory":8}`,
	`{"memory":null,"buffers":null,"id":null}`,
	`{"buffers":[null,{"start":null}]}`,
	`{"memory":8,"unknown":{"x":[1,2]},"buffers":[]}`,
	`{"memory":8,"memory":9}`,
	`{"buffers":[{"start":1,"align":5}],"buffers":[{"start":2}]}`,
	`{"Memory":8,"BUFFERS":[{"Start":1}]}`,
	`{"memory":1e3}`,
	`{"memory":1.0}`,
	`{"memory":-0,"max_steps":-0}`,
	`{"memory":01}`,
	`{"memory":9223372036854775807,"max_steps":-9223372036854775808}`,
	`{"memory":9223372036854775808}`,
	`{"memory":123456789012345678,"timeout_ms":-123456789012345678}`,
	`{"memory":1234567890123456789}`,
	`{"v":2,"memory":8}`,
	`{"memory":8,}`,
	`{"memory":8}x`,
	`{"memory":"8"}`,
	`{}`,
	`null`,
	"{\"id\":\"\x7f\",\"memory\":8}",
	"{\"id\":\"\x01\"}",
}

var responseSeeds = []string{
	string(mustAppendResponse(&Response{V: 1, ID: "c7", Outcome: OutcomeSolved, Winner: "greedy",
		Offsets: []int64{0, 64, 128}, LowerBound: 192, Memory: 256, CacheHit: true, QueueWaitMS: 0.012, ElapsedMS: 1.5})),
	`{"v":1,"outcome":"degraded","spilled":[0,2],"spill_cost":12,"skipped_by_breaker":["search"],"deduped":true,"hint_replayed":false,"degraded_by_brownout":true}`,
	`{"v": 1, "id": "x", "outcome": "shed", "error_code": "overloaded", "retry_after_ms": 1e-7, "error": "queue full"}`,
	`{"v":1,"outcome":"rejected","error":"bad request line: invalid character '<' & '>'"}`,
	`{"v":1,"outcome":"failed","error":"tenant \"t\" overloaded"}`,
	`{"v":1,"outcome":"solved","offsets":[],"spilled":[],"skipped_by_breaker":[]}`,
	`{"v":1,"outcome":"solved","offsets":null,"spilled":[null]}`,
	`{"v":1,"outcome":"solved","elapsed_ms":1e21,"queue_wait_ms":-0,"retry_after_ms":123456789.25}`,
	`{"v":1,"outcome":"solved","elapsed_ms":1e400}`,
	`{"v":1,"outcome":"solved","elapsed_ms":5e-324,"queue_wait_ms":0.000001}`,
	`{"v":1,"outcome":"solved","elapsed_ms":01}`,
	`{"v":1,"outcome":"solved","offsets":[1.5]}`,
	`{"v":1,"outcome":"solved","cache_hit":1}`,
	`{"v":1,"Outcome":"solved","outcome":"failed"}`,
	`{"v":1,"outcome":"solved","winner":"best-fit","winner":"greedy"}`,
	`{"v":1,"outcome":"solved","skipped_by_breaker":["a]b","\u00e9"]}`,
	`{"v":1,"outcome":"solved","future":true}`,
	`{"v":1,"outcome":"solved","cache_hit":truex}`,
	`{"v":1,"outcome":"solved","offsets":[99999999999999999999]}`,
}

// hotRequest is a request shaped like the serving benchmark's lines: an id,
// a model name, a priority and n buffers with staggered lifetimes.
func hotRequest(n int) *Request {
	r := &Request{V: Version, ID: "c123456", Name: "Transformer-24L/s1@105%", Memory: 1 << 24,
		MaxSteps: 200000, Priority: "interactive", Buffers: make([]Buffer, n)}
	for i := range r.Buffers {
		start := int64(i * 7 % 1000)
		r.Buffers[i] = Buffer{Start: start, End: start + int64(1+i%50), Size: int64(64 * (1 + i*37%4096))}
		if i%5 == 0 {
			r.Buffers[i].Align = 256
		}
	}
	return r
}

func mustAppendResponse(r *Response) []byte {
	b, err := AppendResponse(nil, r)
	if err != nil {
		panic(err)
	}
	return b
}

// checkRequestLine is FuzzWire's property on one line.
func checkRequestLine(t *testing.T, line []byte) {
	t.Helper()
	var want, got Request
	wantErr := json.Unmarshal(line, &want)
	gotErr := DecodeRequest(line, &got)
	sameOutcome(t, line, gotErr, wantErr)
	if fast, ok := decodeRequest(line); ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("fast path decoded %q to %#v; json.Unmarshal: %#v, %v", line, fast, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeRequest(%q) = %#v, json.Unmarshal %#v", line, got, want)
	}
	enc := AppendRequest(nil, &got)
	if ref, _ := json.Marshal(want); !bytes.Equal(enc, ref) {
		t.Fatalf("AppendRequest:\n got  %s\n want %s", enc, ref)
	}
	var again Request
	if err := DecodeRequest(enc, &again); err != nil {
		t.Fatalf("re-encoded request failed to decode: %v (encoded %q)", err, enc)
	}
	if b := AppendRequest(nil, &again); !bytes.Equal(enc, b) {
		t.Fatalf("encoding is not a fixed point:\n first: %s\n again: %s", enc, b)
	}
}

// checkResponseLine is FuzzWireResponse's property on one line.
func checkResponseLine(t *testing.T, line []byte) {
	t.Helper()
	var want, got Response
	wantErr := json.Unmarshal(line, &want)
	gotErr := DecodeResponse(line, &got)
	sameOutcome(t, line, gotErr, wantErr)
	if fast, ok := decodeResponse(line); ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("fast path decoded %q to %#v; json.Unmarshal: %#v, %v", line, fast, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeResponse(%q) = %#v, json.Unmarshal %#v", line, got, want)
	}
	enc, err := AppendResponse(nil, &got)
	ref, refErr := json.Marshal(want)
	if err != nil || refErr != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("AppendResponse:\n got  %s (%v)\n want %s (%v)", enc, err, ref, refErr)
	}
}

func sameOutcome(t *testing.T, line []byte, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("decoding %q: error %v, json.Unmarshal %v", line, got, want)
	}
}
