package netdist

import (
	"reflect"
	"testing"

	"fxdist/internal/mkhash"
	"fxdist/internal/query"
)

// FuzzDecodeRequest throws arbitrary payloads at the binary request
// decoder: it must never panic or over-allocate, and anything it
// accepts must survive a re-encode/re-decode round trip.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(appendRequest(nil, &req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := decodeRequest(data, &req); err != nil {
			return
		}
		// Accepted payloads must re-encode to something that decodes to
		// the same request (the encoding itself may differ: varints have
		// non-canonical forms).
		again := appendRequest(nil, &req)
		var req2 Request
		if err := decodeRequest(again, &req2); err != nil {
			t.Fatalf("re-encoded request did not decode: %v", err)
		}
		if !reflect.DeepEqual(req, req2) {
			t.Fatalf("request round trip drifted:\nfirst  %+v\nsecond %+v", req, req2)
		}
	})
}

// FuzzDecodeResponse is the same property for the response decoder. No
// decode is released, so fuzz garbage never lands in the frame pool.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range sampleResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if _, err := decodeResponse(data, &resp); err != nil {
			return
		}
		again := appendResponse(nil, &resp)
		if len(again) != responseSize(&resp) {
			t.Fatalf("responseSize says %d, encoder emitted %d", responseSize(&resp), len(again))
		}
		var resp2 Response
		if _, err := decodeResponse(again, &resp2); err != nil {
			t.Fatalf("re-encoded response did not decode: %v", err)
		}
		if !respEqual(resp, resp2) {
			t.Fatalf("response round trip drifted:\nfirst  %+v\nsecond %+v", resp, resp2)
		}
	})
}

// respEqual compares responses record-by-record (DeepEqual trips over
// nil-vs-empty field slices that the codec does not distinguish).
func respEqual(a, b Response) bool {
	if a.ID != b.ID || a.Err != b.Err || a.Buckets != b.Buckets ||
		a.Scanned != b.Scanned || a.RetryAfterMillis != b.RetryAfterMillis ||
		len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if len(a.Records[i]) != len(b.Records[i]) {
			return false
		}
		for j := range a.Records[i] {
			if a.Records[i][j] != b.Records[i][j] {
				return false
			}
		}
	}
	return true
}

// FuzzRequestWire pushes NewRequest-shaped queries through the full
// encode/decode pair, checking the exact-size invariant the pooled
// single-write framing depends on.
func FuzzRequestWire(f *testing.F) {
	f.Add(uint64(1), int64(-1), "a", "b", true, false)
	f.Add(uint64(0), int64(3), "", "value", false, true)
	f.Fuzz(func(t *testing.T, id uint64, as int64, v0, v1 string, s0, s1 bool) {
		pm := make(mkhash.PartialMatch, 2)
		if s0 {
			pm[0] = &v0
		}
		if s1 {
			pm[1] = &v1
		}
		req := NewRequest([]int{int(as % 1000), query.Unspecified}, pm)
		req.ID = id
		req.AsDevice = int(as)
		payload := appendRequest(nil, &req)
		if len(payload) != requestSize(&req) {
			t.Fatalf("requestSize says %d, encoder emitted %d", requestSize(&req), len(payload))
		}
		var got Request
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("valid request did not decode: %v", err)
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("request wire drift:\nsent %+v\ngot  %+v", req, got)
		}
	})
}
