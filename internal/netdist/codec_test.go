package netdist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fxdist/internal/decluster"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

func str(s string) *string { return &s }

func sampleRequests() []Request {
	return []Request{
		{AsDevice: -1},
		{Ping: true, ID: 7, AsDevice: -1},
		NewRequest([]int{3, query.Unspecified, 0}, mkhash.PartialMatch{str("alpha"), nil, str("")}),
		{
			ID: 1<<63 + 5, TraceID: 42, ParentSpan: 99, AsDevice: 3,
			Spec:  []int{0, 1, query.Unspecified, 7},
			Match: mkhash.PartialMatch{str("héllo"), nil, str("x\x00y"), str("long-" + string(make([]byte, 300)))},
		},
	}
}

func TestRequestBinaryRoundTrip(t *testing.T) {
	for i, req := range sampleRequests() {
		payload := appendRequest(nil, &req)
		if len(payload) != requestSize(&req) {
			t.Fatalf("case %d: encoded %d bytes, requestSize says %d", i, len(payload), requestSize(&req))
		}
		var got Request
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// The codec does not distinguish nil from empty slices; normalize.
		if req.Spec == nil {
			req.Spec = []int{}
		}
		if req.Match == nil {
			req.Match = mkhash.PartialMatch{}
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("case %d: round trip mismatch:\nsent %+v\ngot  %+v", i, req, got)
		}
	}
}

func sampleResponses() []Response {
	return []Response{
		{ID: 1},
		{ID: 2, Err: "netdist: server overloaded", RetryAfterMillis: 250},
		{ID: 3, Buckets: 4, Scanned: 1000, Records: []mkhash.Record{
			{"a", "b", "c"},
			{"", "", ""},
			{"x\x00", "héllo", string(make([]byte, 500))},
		}},
		{ID: 4, Records: []mkhash.Record{{}}},
	}
}

// TestResponseBinaryRoundTrip decodes every sample response and pins the
// lending contract: a response with records decodes in place — its field
// strings lie inside the frame — and holds the frame and one header slab
// until its release puts both back; a record-less response has no release,
// and the read path recycles its frame at once.
func TestResponseBinaryRoundTrip(t *testing.T) {
	t.Cleanup(func() { mempool.SetEnabled(true) })
	for _, pooled := range []bool{false, true} {
		mempool.SetEnabled(pooled)
		for i, resp := range sampleResponses() {
			size := responseSize(&resp)
			payload := appendResponse(mempool.Frames.Get(size)[:0], &resp)
			if len(payload) != size {
				t.Fatalf("case %d: encoded %d bytes, responseSize says %d", i, len(payload), size)
			}
			frames, fields := mempool.Frames.Stats().Puts, respFields.Stats().Puts
			puts := func() [2]uint64 {
				return [2]uint64{mempool.Frames.Stats().Puts - frames, respFields.Stats().Puts - fields}
			}
			var got Response
			release, err := decodeResponse(payload, &got)
			if err != nil {
				t.Fatalf("case %d (pooled=%v): decode: %v", i, pooled, err)
			}
			if len(resp.Records) == 0 {
				if got.Records != nil || release != nil {
					t.Fatalf("case %d: empty response decoded with records/release", i)
				}
				got.Records = resp.Records
			} else if release == nil {
				t.Fatalf("case %d: response with records decoded without a release", i)
			}
			if !respEqual(resp, got) {
				t.Fatalf("case %d (pooled=%v): round trip mismatch:\nsent %+v\ngot  %+v", i, pooled, resp, got)
			}
			if release == nil {
				// The same frame through the coordinator's read path.
				wire := bytes.NewBuffer(binary.LittleEndian.AppendUint32(nil, uint32(size)))
				wire.Write(payload)
				if release, err := (&binCodec{r: wire}).readResponse(&got); err != nil || release != nil {
					t.Fatalf("case %d: read: release %v, %v", i, release != nil, err)
				}
				if pooled && puts() != [2]uint64{1, 0} {
					t.Fatalf("case %d: record-less response put back %v [frames fields], want [1 0]", i, puts())
				}
				continue
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
			for _, rec := range got.Records {
				for _, v := range rec {
					if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); len(v) > 0 && (p < lo || p+uintptr(len(v)) > lo+uintptr(size)) {
						t.Fatalf("case %d: field %q was copied out of the frame", i, v)
					}
				}
			}
			if puts() != [2]uint64{0, 0} {
				t.Fatalf("case %d: %v [frames fields] put back before the release", i, puts())
			}
			release()
			if pooled && puts() != [2]uint64{1, 1} {
				t.Fatalf("case %d: the release put back %v [frames fields], want [1 1]", i, puts())
			}
		}
	}
}

func TestDecodeRejectsTruncatedAndCorruptFrames(t *testing.T) {
	resp := sampleResponses()[2]
	payload := appendResponse(nil, &resp)
	// Every proper prefix must fail cleanly: the record count is
	// declared up front, so a cut-off frame can never half-decode.
	for i := 0; i < len(payload); i++ {
		var got Response
		if _, err := decodeResponse(payload[:i], &got); err == nil {
			t.Fatalf("truncated response frame of %d/%d bytes decoded", i, len(payload))
		}
	}
	req := sampleRequests()[3]
	reqPayload := appendRequest(nil, &req)
	for i := 0; i < len(reqPayload); i++ {
		var got Request
		if err := decodeRequest(reqPayload[:i], &got); err == nil {
			t.Fatalf("truncated request frame of %d/%d bytes decoded", i, len(reqPayload))
		}
	}
	// A record count far beyond the payload is corruption, not an
	// allocation request: swap the empty response's trailing zero count
	// for a huge one.
	base := appendResponse(nil, &Response{ID: 9})
	huge := binary.AppendUvarint(base[:len(base)-1], 1<<40)
	var got Response
	if _, err := decodeResponse(huge, &got); err == nil {
		t.Fatal("giant record count decoded")
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	err := writeFrame(&buf, len(payload), func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		t.Fatal(err)
	}
	var scratch [frameLenSize]byte
	got, err := readFrame(&buf, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: got %q", got)
	}
	mempool.Frames.Put(got)
	if err := writeFrame(&buf, maxFrame+1, nil); err == nil {
		t.Fatal("oversized frame written")
	}
	var hdr [frameLenSize]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), &scratch); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestServerRejectsNonFXBPeer leads a Deploy'd server with something
// other than the wire magic — a legacy gob stream's first bytes, and an
// FXB magic of an unsupported version. Neither is served or silently
// downgraded: the connection is dropped inside the handshake window,
// and the wrong-version peer is told the server's version first.
func TestServerRejectsNonFXBPeer(t *testing.T) {
	file := buildFile(t, 100)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop, err := Deploy(file, decluster.MustFX(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, tc := range []struct {
		name  string
		lead  []byte
		reply []byte // what the server says before dropping the peer
	}{
		{"gob stream", []byte{0x3b, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07}, nil},
		{"FXB version 9", []byte{'F', 'X', 'B', 9}, wireMagic[:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.lead); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(handshakeWindow)) //nolint:errcheck
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("server kept the connection open past the handshake window: %v", err)
			}
			if !bytes.Equal(got, tc.reply) {
				t.Fatalf("server answered %q before closing, want %q", got, tc.reply)
			}
		})
	}
	var lead [4]byte
	copy(lead[:], "FXB\x09")
	if err := checkMagic(lead); !errors.Is(err, ErrProtocol) {
		t.Fatalf("checkMagic(version 9) = %v, want ErrProtocol", err)
	}
}

// TestDialRejectsNonFXBServer dials peers that never complete the
// handshake — one that stays silent (how a gob-only server treats the
// magic), one that acks another version. The dial fails with
// ErrProtocol inside the handshake window, after exactly one
// connection: there is no redial and no fallback protocol.
func TestDialRejectsNonFXBServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		ack  []byte
	}{
		{"silent", nil},
		{"FXB version 9", []byte{'F', 'X', 'B', 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var accepted atomic.Int32
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					accepted.Add(1)
					go func(conn net.Conn) {
						defer conn.Close()
						conn.Write(tc.ack)        //nolint:errcheck
						io.Copy(io.Discard, conn) //nolint:errcheck // hold until the client hangs up
					}(conn)
				}
			}()
			c := &Coordinator{timeout: 200 * time.Millisecond}
			start := time.Now()
			dc, err := c.dialDevice(context.Background(), l.Addr().String())
			if err == nil {
				dc.conn.Close()
				t.Fatal("dial succeeded against a non-FXB server")
			}
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("dial error = %v, want ErrProtocol", err)
			}
			if el := time.Since(start); el > handshakeWindow {
				t.Fatalf("dial took %v, past the handshake window", el)
			}
			if n := accepted.Load(); n != 1 {
				t.Fatalf("client opened %d connections, want exactly 1 (no redial)", n)
			}
		})
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// TestDialHandshakesInOneDial checks the happy path: every device's
// handshake completes on the first and only connection the coordinator
// opens to it, and retrieval agrees with a direct file search.
func TestDialHandshakesInOneDial(t *testing.T) {
	file := buildFile(t, 800)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(parts))
	listeners := make([]*countingListener, len(parts))
	for dev, part := range parts {
		srv, err := NewServer(dev, spec, part)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[dev] = &countingListener{Listener: l}
		addrs[dev] = l.Addr().String()
		go srv.Serve(listeners[dev]) //nolint:errcheck // ends when srv.Close closes l
		defer srv.Close()
	}
	coord, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	pm, err := file.Spec(map[string]string{"supplier": "sup3"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := recordKeys(res.Records), recordKeys(want); !reflect.DeepEqual(got, exp) {
		t.Fatalf("retrieve disagrees with file.Search: got %d records, want %d", len(got), len(exp))
	}
	for dev, l := range listeners {
		if n := l.accepted.Load(); n != 1 {
			t.Errorf("device %d accepted %d connections, want 1", dev, n)
		}
	}
}
