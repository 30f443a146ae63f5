package wire

import (
	"encoding/json"
	"math"
	"testing"
)

// TestFastPathGrammar pins which lines the fast path parses itself, so a
// regression that quietly defers everything to encoding/json — still
// correct, and invisible to the fuzz oracle — fails here.
func TestFastPathGrammar(t *testing.T) {
	requests := []struct {
		line string
		fast bool
	}{
		{string(AppendRequest(nil, hotRequest(290))), true},
		{requestSeeds[1], true}, // ", " and ": " separators, every field
		{requestSeeds[2], true}, // whitespace everywhere, keys out of order
		{`{}`, true},
		{`{"buffers":[]}`, true},
		{`{"memory":-0,"max_steps":-0}`, true},
		{`{"memory":123456789012345678,"timeout_ms":-123456789012345678}`, true},
		{"{\"id\":\"\x7f\",\"memory\":8}", true},
		{`{"id":"a\"b","memory":8,"buffers":[]}`, false},
		{`{"name":"été","memory":8}`, false},
		{`{"memory":null}`, false},
		{`{"memory":8,"unknown":1}`, false},
		{`{"memory":8,"memory":9}`, false},
		{`{"Memory":8}`, false},
		{`{"memory":1e3}`, false},
		{`{"memory":01}`, false},
		{`{"memory":1234567890123456789}`, false},
	}
	for _, tc := range requests {
		if _, ok := decodeRequest([]byte(tc.line)); ok != tc.fast {
			t.Errorf("decodeRequest(%.80q): fast path %v, want %v", tc.line, ok, tc.fast)
		}
	}
	responses := []struct {
		line string
		fast bool
	}{
		{responseSeeds[0], true}, // a cache-hit report as the daemon writes it
		{responseSeeds[1], true}, // spilled, skipped_by_breaker, booleans
		{responseSeeds[2], true}, // spaced, exponent float
		{responseSeeds[5], true}, // empty arrays
		{responseSeeds[7], true}, // 1e21, -0, fractions
		{responseSeeds[4], false},
		{responseSeeds[6], false},
		{responseSeeds[8], false},
	}
	for _, tc := range responses {
		if _, ok := decodeResponse([]byte(tc.line)); ok != tc.fast {
			t.Errorf("decodeResponse(%.80q): fast path %v, want %v", tc.line, ok, tc.fast)
		}
	}
}

// TestAppendResponseNonFinite: a report json.Marshal cannot encode fails
// with json.Marshal's error and leaves dst as it was.
func TestAppendResponseNonFinite(t *testing.T) {
	for _, r := range []Response{
		{Outcome: OutcomeSolved, ElapsedMS: math.NaN()},
		{Outcome: OutcomeShed, RetryAfterMS: math.Inf(1)},
		{Outcome: OutcomeFailed, QueueWaitMS: math.Inf(-1)},
	} {
		_, want := json.Marshal(r)
		got, err := AppendResponse([]byte("x"), &r)
		if err == nil || want == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("AppendResponse(%+v) = %q, %v; json.Marshal error %v", r, got, err, want)
		}
	}
}

// TestDecodeRequestAllocationGate: decoding a compact request allocates the
// buffers slice once at its final length plus its three strings (id, name,
// priority), however many buffers it carries.
func TestDecodeRequestAllocationGate(t *testing.T) {
	for _, n := range []int{10, 290} {
		line := AppendRequest(nil, hotRequest(n))
		allocs := testing.AllocsPerRun(100, func() {
			var r Request
			if err := DecodeRequest(line, &r); err != nil || len(r.Buffers) != n {
				t.Fatalf("DecodeRequest: %d buffers, %v", len(r.Buffers), err)
			}
		})
		if allocs > 4 {
			t.Errorf("%d buffers: %.1f allocations per decode, want at most 4", n, allocs)
		}
	}
}

// BenchmarkDecodeRequest decodes a serving-benchmark-shaped line with 290
// buffers; the json sub-benchmark is the reflection-based reference.
func BenchmarkDecodeRequest(b *testing.B) {
	line := AppendRequest(nil, hotRequest(290))
	b.Run("wire", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for range b.N {
			var r Request
			if err := DecodeRequest(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for range b.N {
			var r Request
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendRequest encodes the same request; json is the reference.
func BenchmarkAppendRequest(b *testing.B) {
	r := hotRequest(290)
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			buf = AppendRequest(buf[:0], r)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
