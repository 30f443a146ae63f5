package wire

import (
	"encoding/json"
	"testing"
)

// The daemon's v1 compatibility contract: a request that omits "v" must
// round-trip with V==0 (meaning Version), and report lines must always
// carry "v" even when every optional field is empty.
func TestRequestVersionOmittedMeansZero(t *testing.T) {
	var req Request
	if err := DecodeRequest([]byte(`{"memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.V != 0 {
		t.Errorf("omitted v decoded as %d, want 0", req.V)
	}
	if req.Memory != 8 || len(req.Buffers) != 1 {
		t.Errorf("request body misdecoded: %+v", req)
	}
}

func TestResponseAlwaysCarriesVersion(t *testing.T) {
	b, err := AppendResponse(nil, &Response{V: Version, Outcome: OutcomeRejected})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if v, ok := raw["v"].(float64); !ok || v != Version {
		t.Errorf(`marshalled report %s: "v" = %v, want %d`, b, raw["v"], Version)
	}
}

func TestRetryableCode(t *testing.T) {
	retryable := []string{CodeDraining, CodeTooManyConnections, CodeOverloaded, CodeIdleTimeout, CodeShuttingDown, CodeTenantOverloaded}
	permanent := []string{CodeBadRequest, CodeUnsupportedVersion, CodeLineTooLong, CodeTruncatedLine, CodeDeadlineExceededInQueue, "", "unknown"}
	for _, c := range retryable {
		if !RetryableCode(c) {
			t.Errorf("RetryableCode(%q) = false, want true", c)
		}
	}
	for _, c := range permanent {
		if RetryableCode(c) {
			t.Errorf("RetryableCode(%q) = true, want false", c)
		}
	}
}

// TestRequestForwardCompat pins the v1 evolution contract from both sides:
// a daemon predating priority/tenant (modelled by a decoder into the old
// field set) ignores the new optional fields, and a new daemon decodes a
// request that omits them to the zero values (batch class, anonymous
// tenant).
func TestRequestForwardCompat(t *testing.T) {
	// New client → old daemon: the old schema had no priority/tenant, and
	// encoding/json drops unknown fields, so the line still decodes.
	line := []byte(`{"memory":8,"buffers":[{"start":0,"end":4,"size":4}],"priority":"interactive","tenant":"team-a","some_future_field":{"x":1}}`)
	var old struct {
		V       int      `json:"v,omitempty"`
		Memory  int64    `json:"memory"`
		Buffers []Buffer `json:"buffers"`
	}
	if err := json.Unmarshal(line, &old); err != nil {
		t.Fatalf("old daemon rejects a new-client line: %v", err)
	}
	if old.Memory != 8 || len(old.Buffers) != 1 {
		t.Errorf("old daemon misdecoded the known fields: %+v", old)
	}

	// This daemon ignores a field from a later client the same way.
	var cur Request
	if err := DecodeRequest(line, &cur); err != nil || cur.Priority != "interactive" || cur.Tenant != "team-a" || len(cur.Buffers) != 1 {
		t.Errorf("daemon misdecoded a line with an unknown field: %+v, %v", cur, err)
	}

	// Old client → new daemon: absent fields decode to the zero values.
	var req Request
	if err := DecodeRequest([]byte(`{"memory":8,"buffers":[{"start":0,"end":4,"size":4}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.Priority != "" || req.Tenant != "" {
		t.Errorf("absent optional fields decoded non-zero: priority=%q tenant=%q", req.Priority, req.Tenant)
	}

	// And the new fields round-trip through the new schema.
	b := AppendRequest(nil, &Request{Memory: 8, Priority: "background", Tenant: "t9"})
	var back Request
	if err := DecodeRequest(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Priority != "background" || back.Tenant != "t9" {
		t.Errorf("priority/tenant did not round-trip: %+v", back)
	}
}

// TestResponseForwardCompat: an old client decoding a new daemon's report
// (with degraded_by_brownout set) must not choke, and a new client decoding
// an old report sees the marker false.
func TestResponseForwardCompat(t *testing.T) {
	line := []byte(`{"v":1,"outcome":"solved","degraded_by_brownout":true,"offsets":[0]}`)
	var old struct {
		V       int     `json:"v"`
		Outcome string  `json:"outcome"`
		Offsets []int64 `json:"offsets,omitempty"`
	}
	if err := json.Unmarshal(line, &old); err != nil {
		t.Fatalf("old client rejects a new-daemon report: %v", err)
	}
	var resp Response
	if err := DecodeResponse([]byte(`{"v":1,"outcome":"solved","offsets":[0]}`), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DegradedByBrownout {
		t.Error("absent marker decoded true")
	}

	// And this client ignores a field from a later daemon.
	var later Response
	if err := DecodeResponse([]byte(`{"v":1,"outcome":"solved","some_future_field":[1],"offsets":[0]}`), &later); err != nil || later.Outcome != OutcomeSolved || len(later.Offsets) != 1 {
		t.Errorf("client misdecoded a report with an unknown field: %+v, %v", later, err)
	}
}
