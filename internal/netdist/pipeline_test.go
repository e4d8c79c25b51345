package netdist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/storage"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// Killing the servers mid-session must fail in-flight and subsequent
// retrievals with a transport error, not hang or return partial data.
func TestServerDeathFailsRetrievals(t *testing.T) {
	file := buildFile(t, 200)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := Dial(file, addrs)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer coord.Close()

	pm, _ := file.Spec(map[string]string{"supplier": "sup1"})
	if _, err := coord.Retrieve(pm); err != nil {
		t.Fatalf("healthy retrieve failed: %v", err)
	}
	stop() // kill all servers
	// The read loops notice the closed connections; retrievals must error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := coord.Retrieve(pm); err != nil {
			if !strings.Contains(err.Error(), "device") {
				t.Fatalf("unexpected error shape: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("retrieve kept succeeding after servers died")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Requests pipeline: many concurrent retrievals over the same connections
// all complete correctly (IDs demultiplex responses).
func TestPipelinedConcurrentRetrievals(t *testing.T) {
	file := buildFile(t, 300)
	coord, cleanup := deploy(t, file, 4)
	defer cleanup()

	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				spec := map[string]string{"supplier": "sup" + string(rune('0'+w%10))}
				pm, err := file.Spec(spec)
				if err != nil {
					errs <- err
					return
				}
				want, err := file.Search(pm)
				if err != nil {
					errs <- err
					return
				}
				got, err := coord.Retrieve(pm)
				if err != nil {
					errs <- err
					return
				}
				if len(got.Records) != len(want) {
					errs <- errMismatch(w, len(got.Records), len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{ w, got, want int }

func errMismatch(w, got, want int) error { return mismatchError{w, got, want} }
func (e mismatchError) Error() string {
	return "worker result mismatch"
}

// A timeout shorter than any plausible response must fire; a generous one
// must not.
func TestDialTimeoutOption(t *testing.T) {
	file := buildFile(t, 100)
	fs, _ := file.FileSystem(2)
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	coord, err := Dial(file, addrs, WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	pm, _ := file.Spec(map[string]string{})
	if _, err := coord.Retrieve(pm); err != nil {
		t.Fatalf("generous timeout failed: %v", err)
	}

	// 1ns timeout: effectively always fires before the response arrives.
	// Set after the dial — the handshake honours the timeout too, and no
	// server acks in a nanosecond.
	fast, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	fast.timeout = time.Nanosecond
	if _, err := fast.Retrieve(pm); err == nil {
		t.Error("nanosecond timeout did not fire")
	} else if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error is not a timeout: %v", err)
	}
}

// A late response to a timed-out request must not corrupt a later
// request's answer (the ID of the dead request is unregistered).
func TestLateResponseAfterTimeoutIsDropped(t *testing.T) {
	file := buildFile(t, 200)
	fs, _ := file.FileSystem(2)
	fx := decluster.MustFX(fs)
	addrs, stop, err := Deploy(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	coord, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.timeout = time.Nanosecond // after the dial: the handshake honours the timeout too
	pm, _ := file.Spec(map[string]string{"supplier": "sup2"})
	if _, err := coord.Retrieve(pm); err == nil {
		t.Fatal("timeout did not fire")
	}
	// Give the late responses time to arrive and be dropped.
	time.Sleep(50 * time.Millisecond)
	// Re-dial with no timeout: correctness restored on fresh requests.
	slow, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	want, _ := file.Search(pm)
	got, err := slow.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Errorf("got %d records, want %d", len(got.Records), len(want))
	}
	// The timed-out coordinator's connections still function for new
	// requests once responses can be awaited... with a 1ns timeout every
	// request times out, but the connection must not be corrupted: the
	// pending map stays empty.
	if _, err := coord.Retrieve(pm); err == nil {
		t.Error("second nanosecond-timeout retrieve unexpectedly succeeded")
	}
	for _, dc := range coord.conns {
		dc.mu.Lock()
		n := len(dc.pending)
		dc.mu.Unlock()
		if n != 0 {
			t.Errorf("pending map leaked %d entries", n)
		}
	}
}

// TestServerQueryAllocs pins what one query request costs a device server
// end to end — frame in, decode, serving span, validate, enumerate, scan,
// shape counter, success event, frame out — over a net.Pipe whose client
// side is allocation-free: at most 1 object, measured 0 (the connection's
// one span is reused), where the copying decoder, the per-request
// inverse-mapper scratch, the formatted event and the shape string made
// it about 15, and a span per request 2.
func TestServerQueryAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	file := buildFile(t, 400)
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
	srv, err := NewServer(1, spec, parts[1])
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	srv.mu.Lock()
	srv.conns[server] = struct{}{}
	srv.mu.Unlock()
	go srv.handle(server)
	defer srv.Close()
	if err := negotiateClient(client, handshakeWindow); err != nil {
		t.Fatal(err)
	}

	pm, err := file.Spec(map[string]string{"supplier": "sup3", "warehouse": "wh3"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := file.BucketQuery(pm)
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(q.Spec, pm)
	req.ID, req.TraceID, req.ParentSpan = 9, 77, 78
	frame := binary.LittleEndian.AppendUint32(nil, uint32(requestSize(&req)))
	frame = appendRequest(frame, &req)
	in := make([]byte, 1<<16)
	var resp Response
	var n uint32
	roundTrip := func() {
		if _, err := client.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, in[:frameLenSize]); err != nil {
			t.Fatal(err)
		}
		n = binary.LittleEndian.Uint32(in)
		if _, err := io.ReadFull(client, in[:n]); err != nil {
			t.Fatal(err)
		}
		f := frameReader{buf: in[:n]}
		if resp.ID, err = f.uvarint(); err != nil || resp.ID != req.ID {
			t.Fatalf("response id %d, %v", resp.ID, err)
		}
	}
	roundTrip() // warm the pools, the walk, the shape counter
	if _, err := decodeResponse(in[:n], &resp); err != nil || resp.Err != "" || resp.Buckets == 0 || len(resp.Records) == 0 {
		t.Fatalf("response: %d buckets, %d records, %q, %v", resp.Buckets, len(resp.Records), resp.Err, err)
	}
	if got := testing.AllocsPerRun(200, roundTrip); got > 1 {
		t.Errorf("one query request costs the server %.1f allocations, want at most 1", got)
	}
}

// TestDecodeResponseAllocsDoNotGrowWithRecords pins the in-place decode:
// with warm pools a response costs nothing, per record or at all — the
// copying decoder paid a builder, its chunks and their doublings, and
// until the loan was pooled a decode still paid its release closure.
func TestDecodeResponseAllocsDoNotGrowWithRecords(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so allocation counts are not exact")
	}
	cost := func(n int) float64 {
		resp := Response{ID: 1, Buckets: 4, Scanned: 4 * n}
		for i := 0; i < n; i++ {
			resp.Records = append(resp.Records, mkhash.Record{fmt.Sprintf("part%d", i), "sup3", "wh3"})
		}
		payload := appendResponse(nil, &resp)
		var got Response
		return testing.AllocsPerRun(200, func() {
			frame := mempool.Frames.Get(len(payload))
			copy(frame, payload)
			release, err := decodeResponse(frame, &got)
			if err != nil || len(got.Records) != n || got.Records[n-1][0] != resp.Records[n-1][0] {
				t.Fatalf("decode of %d records: %d back, %v", n, len(got.Records), err)
			}
			clientHits.Put(got.Records)
			release()
		})
	}
	if small, large := cost(10), cost(1000); small != 0 || large != 0 {
		t.Errorf("decoding 10 records costs %.0f allocations and 1000 cost %.0f, want 0", small, large)
	}
}
