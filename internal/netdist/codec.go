package netdist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"
	"unsafe"

	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// Binary wire protocol: the only one. A connection opens with the
// 4-byte magic — "FXB" plus a version byte — which the server acks
// before length-prefixed binary frames flow both ways; a peer that
// leads with anything else, or an unsupported version, is rejected with
// ErrProtocol inside the handshake window (see negotiateClient /
// negotiateServer).
//
// Frame layout, both directions, after the handshake:
//
//	[4] magic "FXB" + version 1   (handshake only, once per connection)
//	[4] frame length N, little-endian uint32
//	[N] payload
//
// Payloads use uvarints for counts/ids and zigzag varints for signed
// ints; strings are uvarint length + raw bytes. Request payload:
//
//	flags(1: bit1=Stats bit2=rescale extension; bit0 unused) id traceID
//	parentSpan zigzag(asDevice)
//	uvarint(len(Spec)) zigzag(Spec...)
//	uvarint(numFields) then per field: 1 byte specified, if set
//	uvarint(len)+bytes of the value
//	[bit2 only] uvarint(Epoch) uvarint(Control) zigzag(Bucket)
//	uvarint(len)+bytes of SpecJSON
//	uvarint(numRecords) then records as in the response payload
//
// The rescale extension (Epoch, Control, Bucket, SpecJSON, Payload) is
// gated by flags bit2 and appended after the value filters, so a query
// frame, which never sets the bit, pays nothing for it.
//
// Response payload:
//
//	id string(Err) zigzag(Buckets) zigzag(Scanned)
//	zigzag(RetryAfterMillis)
//	uvarint(numRecords) then each record's encoded body (mkhash:
//	uvarint(numFields), then per field uvarint(len)+bytes)
//	[optional trailing] uvarint(len)+bytes of StatsJSON
//
// The StatsJSON field is trailing-optional: encoders append it only when
// non-empty, and decoders read it only when payload bytes remain after
// the records, so a query answer pays nothing for it. (Optional sections
// buy no cross-version decoding: checkMagic admits FXB version 1 alone.)
//
// Encoders size the payload exactly, fill one pooled frame, and write
// it with a single Write. Both sides decode in place: the coordinator
// reads a response into a pooled slab its records alias until the result
// is released (decodeResponse); a server reads a request into a buffer its
// connection owns (binServerCodec.decode).

var wireMagic = [4]byte{'F', 'X', 'B', 1}

// ErrProtocol marks a connection whose peer did not complete the FXB
// handshake: no magic, an unsupported version byte, or no answer inside
// the handshake window. Match with errors.Is.
var ErrProtocol = errors.New("netdist: wire protocol mismatch")

// handshakeWindow bounds how long either side waits for the other's
// four handshake bytes.
const handshakeWindow = 2 * time.Second

// isFXB reports whether got is the wire magic of some protocol version.
func isFXB(got [4]byte) bool { return [3]byte(got[:3]) == [3]byte(wireMagic[:3]) }

// checkMagic classifies the four bytes a peer led (or answered) with.
func checkMagic(got [4]byte) error {
	switch {
	case got == wireMagic:
		return nil
	case isFXB(got):
		return fmt.Errorf("%w: peer speaks FXB version %d, this side version %d", ErrProtocol, got[3], wireMagic[3])
	default:
		return fmt.Errorf("%w: peer led with %q, want the FXB magic", ErrProtocol, got[:])
	}
}

// maxFrame bounds one message; a length prefix beyond it is treated as
// stream corruption, not an allocation request.
const maxFrame = 64 << 20

const frameLenSize = 4

// uvarintLen returns the encoded size of v without encoding it.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// zigzag maps signed ints onto uvarints (small magnitudes stay small).
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func stringSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// frameReader pulls uvarints, zigzags and byte views out of one decoded
// frame. Views alias the frame slab and die with it.
type frameReader struct {
	buf []byte
	off int
}

var errFrameCorrupt = fmt.Errorf("netdist: corrupt binary frame")

func (f *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(f.buf[f.off:])
	if n <= 0 {
		return 0, errFrameCorrupt
	}
	f.off += n
	return v, nil
}

func (f *frameReader) zigzag() (int64, error) {
	u, err := f.uvarint()
	return unzigzag(u), err
}

func (f *frameReader) bytes() ([]byte, error) {
	n, err := f.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(f.buf)-f.off) {
		return nil, errFrameCorrupt
	}
	b := f.buf[f.off : f.off+int(n)]
	f.off += int(n)
	return b, nil
}

func (f *frameReader) byte() (byte, error) {
	if f.off >= len(f.buf) {
		return 0, errFrameCorrupt
	}
	b := f.buf[f.off]
	f.off++
	return b, nil
}

// hasRescaleExt reports whether the request needs the flags-bit2
// trailing extension on the wire.
func (req *Request) hasRescaleExt() bool {
	return req.Epoch != 0 || req.Control != 0
}

// recordsSize returns the wire size of a record list (shared by the
// response body and the request's install payload): a count, then each
// record's encoded body.
func recordsSize(recs []mkhash.Record) int {
	n := uvarintLen(uint64(len(recs)))
	for _, r := range recs {
		n += mkhash.EncodedSize(r)
	}
	return n
}

func appendRecords(b []byte, recs []mkhash.Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, r := range recs {
		b = mkhash.AppendEncoded(b, r)
	}
	return b
}

// listLen reads a record list's count, which cannot exceed the payload
// left: a record costs at least 1 byte on the wire, so a larger count is
// corruption, not a huge allocation.
func listLen(f *frameReader) (int, error) {
	nr, err := f.uvarint()
	if err == nil && nr > uint64(len(f.buf)-f.off) {
		err = errFrameCorrupt
	}
	return int(nr), err
}

// decodeRecordsPlain reads a record list with plain (GC-owned) copies —
// the control path; the query hot path decodes in place (decodeResponse).
func decodeRecordsPlain(f *frameReader) ([]mkhash.Record, error) {
	nr, err := listLen(f)
	if err != nil || nr == 0 {
		return nil, err
	}
	recs, size, err := mkhash.DecodeEncoded(f.buf[f.off:], nr)
	f.off += size
	return recs, err
}

// requestSize returns the exact payload size appendRequest will emit.
func requestSize(req *Request) int {
	n := 1 + uvarintLen(req.ID) + uvarintLen(req.TraceID) + uvarintLen(req.ParentSpan) +
		uvarintLen(zigzag(int64(req.AsDevice))) + uvarintLen(uint64(len(req.Spec)))
	for _, v := range req.Spec {
		n += uvarintLen(zigzag(int64(v)))
	}
	n += uvarintLen(uint64(len(req.Match)))
	for _, v := range req.Match {
		n++
		if v != nil {
			n += stringSize(*v)
		}
	}
	if req.hasRescaleExt() {
		n += uvarintLen(uint64(req.Epoch)) + uvarintLen(uint64(req.Control)) +
			uvarintLen(zigzag(int64(req.Bucket))) +
			uvarintLen(uint64(len(req.SpecJSON))) + len(req.SpecJSON) +
			recordsSize(req.Payload)
	}
	return n
}

func appendRequest(b []byte, req *Request) []byte {
	var flags byte
	if req.Stats {
		flags |= 2
	}
	if req.hasRescaleExt() {
		flags |= 4
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, req.ID)
	b = binary.AppendUvarint(b, req.TraceID)
	b = binary.AppendUvarint(b, req.ParentSpan)
	b = binary.AppendUvarint(b, zigzag(int64(req.AsDevice)))
	b = binary.AppendUvarint(b, uint64(len(req.Spec)))
	for _, v := range req.Spec {
		b = binary.AppendUvarint(b, zigzag(int64(v)))
	}
	b = binary.AppendUvarint(b, uint64(len(req.Match)))
	for _, v := range req.Match {
		if v != nil {
			b = append(b, 1)
			b = appendString(b, *v)
		} else {
			b = append(b, 0)
		}
	}
	if req.hasRescaleExt() {
		b = binary.AppendUvarint(b, uint64(req.Epoch))
		b = binary.AppendUvarint(b, uint64(req.Control))
		b = binary.AppendUvarint(b, zigzag(int64(req.Bucket)))
		b = binary.AppendUvarint(b, uint64(len(req.SpecJSON)))
		b = append(b, req.SpecJSON...)
		b = appendRecords(b, req.Payload)
	}
	return b
}

// resized returns s with length n, in s's backing array when it is large
// enough (never nil, as a fresh make is not).
func resized[T any](s []T, n uint64) []T {
	if s == nil || uint64(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeRequest parses one request payload with no scratch to reuse.
func decodeRequest(buf []byte, req *Request) error {
	return new(binServerCodec).decode(buf, req)
}

// decode parses one request payload into req, reusing the backing arrays
// req and the codec already hold, so a connection's queries decode
// without allocating. The query arm is decoded in place — Spec and Match
// in req's slices, the filter values in the codec's, their strings
// aliasing buf as mempool's builder aliases its arena — and is valid only
// until buf, req or the codec is next written: for a server, until the
// response is on the wire. What a control operation keeps (SpecJSON, an
// Install's Payload) is copied out.
func (b *binServerCodec) decode(buf []byte, req *Request) error {
	f := frameReader{buf: buf}
	flags, err := f.byte()
	if err != nil {
		return err
	}
	req.Stats = flags&2 != 0
	req.Epoch, req.Control, req.Bucket = 0, 0, 0
	req.SpecJSON, req.Payload = nil, nil
	if req.ID, err = f.uvarint(); err != nil {
		return err
	}
	if req.TraceID, err = f.uvarint(); err != nil {
		return err
	}
	if req.ParentSpan, err = f.uvarint(); err != nil {
		return err
	}
	as, err := f.zigzag()
	if err != nil {
		return err
	}
	req.AsDevice = int(as)
	ns, err := f.uvarint()
	if err != nil {
		return err
	}
	if ns > uint64(len(buf)) {
		return errFrameCorrupt
	}
	req.Spec = resized(req.Spec, ns)
	for i := range req.Spec {
		v, err := f.zigzag()
		if err != nil {
			return err
		}
		req.Spec[i] = int(v)
	}
	nf, err := f.uvarint()
	if err != nil {
		return err
	}
	if nf > uint64(len(buf)) {
		return errFrameCorrupt
	}
	// The filters decode straight into the match the record loop takes:
	// one slab of values, one of pointers into it.
	b.values = resized(b.values, nf)
	req.Match = resized(req.Match, nf)
	for i := range b.values {
		sp, err := f.byte()
		if err != nil {
			return err
		}
		if sp > 1 {
			return errFrameCorrupt
		}
		b.values[i], req.Match[i] = "", nil
		if sp == 1 {
			v, err := f.bytes()
			if err != nil {
				return err
			}
			b.values[i] = unsafe.String(unsafe.SliceData(v), len(v))
			req.Match[i] = &b.values[i]
		}
	}
	if flags&4 != 0 {
		ep, err := f.uvarint()
		if err != nil {
			return err
		}
		req.Epoch = int(ep)
		op, err := f.uvarint()
		if err != nil {
			return err
		}
		req.Control = int(op)
		bk, err := f.zigzag()
		if err != nil {
			return err
		}
		req.Bucket = int(bk)
		sj, err := f.bytes()
		if err != nil {
			return err
		}
		if len(sj) > 0 {
			req.SpecJSON = append([]byte(nil), sj...)
		}
		if req.Payload, err = decodeRecordsPlain(&f); err != nil {
			return err
		}
	}
	return nil
}

// responseSize returns the exact payload size appendResponse will emit.
func responseSize(resp *Response) int {
	n := uvarintLen(resp.ID) + stringSize(resp.Err) +
		uvarintLen(zigzag(int64(resp.Buckets))) + uvarintLen(zigzag(int64(resp.Scanned))) +
		uvarintLen(zigzag(resp.RetryAfterMillis))
	if records, _, _ := resp.found.Size(); records > 0 {
		n += uvarintLen(uint64(records)) + len(resp.found.Bytes())
	} else {
		n += recordsSize(resp.Records)
	}
	if len(resp.StatsJSON) > 0 {
		n += uvarintLen(uint64(len(resp.StatsJSON))) + len(resp.StatsJSON)
	}
	return n
}

func appendResponse(b []byte, resp *Response) []byte {
	b = binary.AppendUvarint(b, resp.ID)
	b = appendString(b, resp.Err)
	b = binary.AppendUvarint(b, zigzag(int64(resp.Buckets)))
	b = binary.AppendUvarint(b, zigzag(int64(resp.Scanned)))
	b = binary.AppendUvarint(b, zigzag(resp.RetryAfterMillis))
	if records, _, _ := resp.found.Size(); records > 0 {
		b = binary.AppendUvarint(b, uint64(records))
		b = append(b, resp.found.Bytes()...)
	} else {
		b = appendRecords(b, resp.Records)
	}
	if len(resp.StatsJSON) > 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.StatsJSON)))
		b = append(b, resp.StatsJSON...)
	}
	return b
}

// decodeTrailingStats reads the trailing-optional StatsJSON field: bytes
// remaining after the records are the stats blob, copied out because the
// frame slab recycles; an exhausted frame means the peer didn't send one.
func decodeTrailingStats(f *frameReader, resp *Response) error {
	resp.StatsJSON = nil
	if f.off >= len(f.buf) {
		return nil
	}
	v, err := f.bytes()
	if err != nil {
		return err
	}
	resp.StatsJSON = append([]byte(nil), v...)
	return nil
}

// decodeResponse parses one response payload in place: the field strings
// of its records alias buf, and the records' []string headers are carved
// from one respFields slab sized exactly — every body is validated first,
// its field counts summed, and only then built as views. The
// record-header slice comes from the engine's hits pool, so the merge
// recycles it. A response with records takes buf over: release, non-nil
// exactly then, puts the frame and the header slab back, after which the
// records are garbage; never calling it leaves both to the collector.
// Call it at most once. Everything else (Err, StatsJSON) is copied out,
// and without a release buf is still the caller's to recycle.
func decodeResponse(buf []byte, resp *Response) (release func(), err error) {
	f := frameReader{buf: buf}
	if resp.ID, err = f.uvarint(); err != nil {
		return nil, err
	}
	e, err := f.bytes()
	if err != nil {
		return nil, err
	}
	resp.Err = string(e)
	bk, err := f.zigzag()
	if err != nil {
		return nil, err
	}
	resp.Buckets = int(bk)
	sc, err := f.zigzag()
	if err != nil {
		return nil, err
	}
	resp.Scanned = int(sc)
	if resp.RetryAfterMillis, err = f.zigzag(); err != nil {
		return nil, err
	}
	nr, err := listLen(&f)
	if err != nil {
		return nil, err
	}
	start, fields := f.off, 0
	for range nr {
		size, nf, _, _, err := mkhash.MatchEncoded(buf[f.off:], nil)
		if err != nil {
			return nil, err
		}
		f.off, fields = f.off+size, fields+nf
	}
	if err := decodeTrailingStats(&f, resp); err != nil || nr == 0 {
		resp.Records = nil
		return nil, err
	}
	recs := clientHits.Get(nr)
	l := loans.Get().(*loan)
	if l.release == nil {
		l.release = l.giveBack
	}
	l.frame, l.fields = buf, respFields.Get(fields)
	slab, enc := l.fields, buf[start:]
	for i := range recs {
		recs[i], enc = mkhash.BuildEncoded(enc, nil, &slab)
	}
	resp.Records = recs
	return l.release, nil
}

// loan is what a decoded response lends, and release, bound once per
// loan, gives it back: lending allocates nothing once loans is warm.
type loan struct {
	frame   []byte
	fields  []string
	release func()
}

var loans = sync.Pool{New: func() any { return new(loan) }}

func (l *loan) giveBack() {
	respFields.Put(l.fields)
	mempool.Frames.Put(l.frame)
	l.frame, l.fields = nil, nil
	loans.Put(l)
}

// writeFrame sizes the payload with size, fills one pooled buffer via
// fill (length prefix + payload), writes it with a single Write, and
// recycles the buffer.
func writeFrame(w io.Writer, size int, fill func([]byte) []byte) error {
	if size > maxFrame {
		return fmt.Errorf("netdist: frame of %d bytes exceeds limit %d", size, maxFrame)
	}
	buf := mempool.Frames.Get(frameLenSize + size)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	buf = fill(buf)
	_, err := w.Write(buf)
	mempool.Frames.Put(buf)
	return err
}

// readFrameLen reads one frame's length prefix through hdr, held by the
// reading codec: a local array would escape through the io.Reader.
func readFrameLen(r io.Reader, hdr *[frameLenSize]byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return 0, fmt.Errorf("netdist: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	return int(n), nil
}

// readFrame reads one length-prefixed payload into a pooled slab; the
// caller Puts it back to mempool.Frames once decoded.
func readFrame(r io.Reader, hdr *[frameLenSize]byte) ([]byte, error) {
	n, err := readFrameLen(r, hdr)
	if err != nil {
		return nil, err
	}
	buf := mempool.Frames.Get(n)
	if _, err := io.ReadFull(r, buf); err != nil {
		mempool.Frames.Put(buf)
		return nil, err
	}
	return buf, nil
}

// binCodec is the coordinator side of the wire: writeRequest runs under
// the connection's write mutex against the counting writer,
// readResponse on the read-loop goroutine against the timing reader, so
// writer and reader state are disjoint.
type binCodec struct {
	w   io.Writer
	r   io.Reader
	hdr [frameLenSize]byte // the read loop's
}

func (b *binCodec) writeRequest(req *Request) error {
	return writeFrame(b.w, requestSize(req), func(buf []byte) []byte {
		return appendRequest(buf, req)
	})
}

// readResponse reads and decodes one response. The release it returns,
// when non-nil, is decodeResponse's: the frame stays out of the pool for
// as long as the records that alias it are in use.
func (b *binCodec) readResponse(resp *Response) (func(), error) {
	payload, err := readFrame(b.r, &b.hdr)
	if err != nil {
		return nil, err
	}
	release, err := decodeResponse(payload, resp)
	if release == nil {
		mempool.Frames.Put(payload)
	}
	return release, err
}

// binServerCodec is the device-server side of the wire. It owns the
// buffer requests are read into, which a decoded query aliases: the
// connection's loop is serial — read, answer, write — so the buffer is
// next written only after the response left.
type binServerCodec struct {
	w      io.Writer
	r      io.Reader
	hdr    [frameLenSize]byte
	frame  []byte
	values []string // the slab a decoded Match points into
}

// keptFrame bounds the buffer a connection holds between requests; a
// larger frame (an Install of a big bucket) gets one of its own.
const keptFrame = 64 << 10

func (b *binServerCodec) readRequest(req *Request) error {
	n, err := readFrameLen(b.r, &b.hdr)
	if err != nil {
		return err
	}
	buf := b.frame
	if n > cap(buf) {
		buf = make([]byte, n)
		if n <= keptFrame {
			b.frame = buf
		}
	}
	buf = buf[:n]
	if _, err := io.ReadFull(b.r, buf); err != nil {
		return err
	}
	return b.decode(buf, req)
}

func (b *binServerCodec) writeResponse(resp *Response) error {
	return writeFrame(b.w, responseSize(resp), func(buf []byte) []byte {
		return appendResponse(buf, resp)
	})
}

// clientHits is the hit-frame pool binary decodes draw record-header
// slices from: the executor's own, so its merge recycles them.
// respFields holds the []string slabs those headers point into.
var (
	clientHits = engine.HitsPool()
	respFields = mempool.NewSlicePool[string]("netdist.fields")
)
