// Package pagestore is a durable per-device bucket store: the on-disk
// "local device" under the paper's data-distribution layer. Each parallel
// device persists its bucket partition in one log-structured file —
// CRC-framed appends, an in-memory bucket index rebuilt on open, and
// torn-tail recovery — so a simulated device cluster can survive restarts
// and the retrieval path can exercise real I/O.
//
// On-disk format (little endian), per frame:
//
//	[4] crc32(IEEE) of everything after this field
//	[4] bucket id
//	[4] payload length
//	[n] payload: one kind byte (put or tombstone), then the record's
//	    fields as length-prefixed strings
//
// A put frame stores a record; a tombstone deletes every equal record
// previously stored in the bucket. A frame whose CRC does not match — a
// torn write from a crash — ends the valid prefix; Open truncates the
// file there and continues. Frames are append-only; Sync makes them
// durable; Compact rewrites the log with only live put frames.
//
// The paper prices a query in bucket accesses, so a bucket is one access:
// the index maps it to its runs — extents of back-to-back put frames —
// and the one read path (walk) reads a run with a single ReadAt. A scan
// compares the query's specified fields on the encoded bytes and copies
// out only the hits' bodies; they are decoded once, into exactly-sized
// memory, when the caller has collected them all. AppendRun and Compact
// leave a bucket as one run (a few if it exceeds chunk bytes); a single
// Append or Delete landing between its frames adds a run until the next
// Compact.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"time"

	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
)

const frameHeaderSize = 12 // crc + bucket id + payload length

// Frame kinds (first payload byte).
const (
	kindPut       byte = 1
	kindTombstone byte = 2
)

// maxPayload guards against reading a corrupt length and allocating
// gigabytes.
const maxPayload = 16 << 20

// chunk is the most the store reads at once: the cap on a run (a larger
// single frame is a run of its own) and recover's read size.
const chunk = 1 << 20

// extent is one run: size bytes of back-to-back put frames of one bucket
// from file offset off. 16 bytes, and every lone insert costs one.
type extent struct {
	off  int64
	size uint32
}

// addFrame records a put frame of n bytes at off: the last run grows when
// the frame starts where it ends and fits under chunk, else a run starts.
func addFrame(runs []extent, off int64, n int) []extent {
	if k := len(runs) - 1; k >= 0 && runs[k].off+int64(runs[k].size) == off && int(runs[k].size)+n <= chunk {
		runs[k].size += uint32(n)
		return runs
	}
	return append(runs, extent{off, uint32(n)})
}

// Store is one device's durable bucket store.
type Store struct {
	f *os.File
	// r is f; every read goes through it so a test can count them.
	r    io.ReaderAt
	path string
	// index maps bucket id to the runs holding its live put frames, in
	// append order.
	index map[uint32][]extent
	// size is the validated file length (append position).
	size int64
	// records counts stored records.
	records int
}

// Open opens or creates the store at path, rebuilding the bucket index by
// scanning the log. A torn final frame (crash during append) is detected
// by CRC and truncated away.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, r: f, path: path, index: make(map[uint32][]extent)}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	mOpens.Inc()
	mRecoveredRecords.Add(uint64(s.records))
	return s, nil
}

// recover reads the log the way it was written — sequentially, a chunk at
// a time — indexing valid frames and truncating at the first invalid one.
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	fileSize := info.Size()
	// window holds file bytes [base, base+len(window)); at returns n of
	// them from off, reading the next chunk from off when they are not all
	// inside, so a frame straddling a chunk edge is read again with it.
	var window []byte
	defer func() { mempool.Frames.Put(window) }()
	var base int64
	at := func(off int64, n int) ([]byte, error) {
		if off+int64(n) > base+int64(len(window)) {
			mempool.Frames.Put(window)
			window = mempool.Frames.Get(int(min(max(int64(n), chunk), fileSize-off)))
			if _, err := s.r.ReadAt(window, off); err != nil {
				return nil, err
			}
			base = off
		}
		return window[off-base:][:n], nil
	}
	var off int64
	for off+frameHeaderSize <= fileSize {
		header, err := at(off, frameHeaderSize)
		if err != nil {
			return err
		}
		crc := binary.LittleEndian.Uint32(header[0:4])
		bucket := binary.LittleEndian.Uint32(header[4:8])
		plen := binary.LittleEndian.Uint32(header[8:12])
		n := frameHeaderSize + int(plen)
		if plen > maxPayload || off+int64(n) > fileSize {
			break // torn or corrupt tail
		}
		frame, err := at(off, n)
		if err != nil {
			return err
		}
		if plen == 0 || crc32.ChecksumIEEE(frame[4:]) != crc {
			// Corrupt frame, or one without its kind byte: end of the
			// valid prefix.
			break
		}
		switch payload := frame[frameHeaderSize:]; payload[0] {
		case kindPut:
			s.index[bucket] = addFrame(s.index[bucket], off, n)
			s.records++
		case kindTombstone:
			rec, err := decodeRecord(payload[1:])
			if err != nil {
				return fmt.Errorf("pagestore: corrupt tombstone at offset %d: %w", off, err)
			}
			if _, err := s.remove(bucket, rec, false); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pagestore: unknown frame kind %d at offset %d", payload[0], off)
		}
		off += int64(n)
	}
	if off < fileSize {
		if err := s.f.Truncate(off); err != nil {
			return err
		}
		mTornTails.Inc()
		obs.Logger().Info("pagestore: truncated torn tail", "path", s.path, "offset", off, "was_bytes", fileSize)
	}
	s.size = off
	return nil
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of stored records.
func (s *Store) Len() int { return s.records }

// Buckets returns the number of non-empty buckets.
func (s *Store) Buckets() int { return len(s.index) }

// appendFrames encodes one frame per record into one exactly-sized pooled
// slab and appends it with a single WriteAt, so the frames are back to
// back on disk. Put frames are indexed once the write has succeeded.
func (s *Store) appendFrames(kind byte, bucket uint32, recs ...mkhash.Record) error {
	if len(recs) == 0 {
		return nil
	}
	total := 0
	for _, rec := range recs {
		plen := 1 + recordSize(rec)
		if plen > maxPayload {
			return fmt.Errorf("pagestore: record of %d bytes exceeds limit", plen)
		}
		total += frameHeaderSize + plen
	}
	slab := mempool.Frames.Get(total)[:0]
	defer mempool.Frames.Put(slab)
	for _, rec := range recs {
		frame := len(slab)
		slab = append(slab[:frame+frameHeaderSize], kind)
		slab = appendRecord(slab, rec)
		binary.LittleEndian.PutUint32(slab[frame+4:], bucket)
		binary.LittleEndian.PutUint32(slab[frame+8:], uint32(len(slab)-frame-frameHeaderSize))
		binary.LittleEndian.PutUint32(slab[frame:], crc32.ChecksumIEEE(slab[frame+4:]))
	}
	if _, err := s.f.WriteAt(slab, s.size); err != nil {
		return err
	}
	if kind == kindPut {
		runs := s.index[bucket]
		for pos := 0; pos < len(slab); {
			n := frameHeaderSize + int(binary.LittleEndian.Uint32(slab[pos+8:]))
			runs = addFrame(runs, s.size+int64(pos), n)
			pos += n
		}
		s.index[bucket] = runs
		s.records += len(recs)
	}
	s.size += int64(len(slab))
	return nil
}

// Append stores one record in the given bucket. The write is buffered by
// the OS until Sync.
func (s *Store) Append(bucket uint32, rec mkhash.Record) error {
	t0 := time.Now()
	err := s.appendFrames(kindPut, bucket, rec)
	mAppend.ObserveSince(t0)
	return err
}

// AppendRun stores records in the bucket as one run: a single write puts
// their frames back to back, so a scan reads them with a single read.
// The bytes are those of one Append per record. Buffered until Sync.
func (s *Store) AppendRun(bucket uint32, recs []mkhash.Record) error {
	return s.appendFrames(kindPut, bucket, recs...)
}

// Delete removes every record equal to rec from the bucket, returning the
// number removed. A tombstone frame is appended so the deletion survives
// restarts; deleting a record that is not present writes nothing.
func (s *Store) Delete(bucket uint32, rec mkhash.Record) (int, error) {
	return s.remove(bucket, rec, true)
}

// remove rebuilds the bucket's runs without the frames whose record
// equals rec (a run splits around them). With log set — a Delete, not
// recovery replaying one — it first appends the tombstone, once a match
// is known to exist.
func (s *Store) remove(bucket uint32, rec mkhash.Record, log bool) (int, error) {
	want := make(mkhash.PartialMatch, len(rec))
	for i := range rec {
		want[i] = &rec[i]
	}
	var kept []extent
	dropped := 0
	err := s.walk(bucket, func(off int64, frame []byte) error {
		match, fields, _, err := matchRecord(frame[frameHeaderSize+1:], want)
		if err != nil {
			return err
		}
		if match && fields == len(rec) {
			dropped++
		} else {
			kept = addFrame(kept, off, len(frame))
		}
		return nil
	})
	if err != nil || dropped == 0 {
		return 0, err
	}
	if log {
		if err := s.appendFrames(kindTombstone, bucket, rec); err != nil {
			return 0, err
		}
		mTombstones.Inc()
	}
	if len(kept) == 0 {
		delete(s.index, bucket)
	} else {
		s.index[bucket] = kept
	}
	s.records -= dropped
	return dropped, nil
}

// Compact rewrites the log with only live put frames (dropping tombstones
// and deleted records), fsyncs it, and atomically replaces the old file.
// Scan order within each bucket is preserved, and every bucket comes out
// as one run.
func (s *Store) Compact() error {
	t0 := time.Now()
	oldSize := s.size
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)
	next := &Store{f: tmp, r: tmp, path: s.path, index: make(map[uint32][]extent)}
	var recs []mkhash.Record
	for bucket := range s.index {
		recs = recs[:0]
		err = s.ScanInto(bucket, mempool.NewRecordBuilder(false), func(rec mkhash.Record) error {
			recs = append(recs, rec)
			return nil
		})
		if err == nil {
			err = next.AppendRun(bucket, recs)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, s.path)
	}
	if err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	*s = *next
	mCompactions.Inc()
	obs.Logger().Info("pagestore: compacted", "path", s.path, "from_bytes", oldSize, "to_bytes", s.size,
		"live_records", s.records, "took", time.Since(t0))
	return old.Close()
}

// EachBucket calls fn for every non-empty bucket id.
func (s *Store) EachBucket(fn func(bucket uint32) error) error {
	for b := range s.index {
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// walk is the one read path. It reads each run of the bucket with a
// single ReadAt into a pooled slab and calls visit for every frame in it,
// in append order, with the frame's file offset and bytes (header, kind
// byte, record body), having checked that the frame lies inside the run
// and is a put of this bucket. The slab returns to the pool before the
// next run is read, so visit must copy what it keeps.
func (s *Store) walk(bucket uint32, visit func(off int64, frame []byte) error) error {
	for _, run := range s.index[bucket] {
		slab := mempool.Frames.Get(int(run.size))
		_, err := s.r.ReadAt(slab, run.off)
		for pos := 0; err == nil && pos < len(slab); {
			rest := slab[pos:]
			if len(rest) <= frameHeaderSize {
				err = fmt.Errorf("pagestore: truncated frame at offset %d", run.off+int64(pos))
				break
			}
			plen := binary.LittleEndian.Uint32(rest[8:12])
			n := frameHeaderSize + int(plen)
			if plen == 0 || plen > maxPayload || n > len(rest) || binary.LittleEndian.Uint32(rest[4:8]) != bucket || rest[frameHeaderSize] != kindPut {
				err = fmt.Errorf("pagestore: frame at offset %d is not a put of bucket %d inside its run", run.off+int64(pos), bucket)
				break
			}
			err = visit(run.off+int64(pos), rest[:n])
			pos += n
		}
		mempool.Frames.Put(slab)
		if err != nil {
			return err
		}
	}
	return nil
}

// Matches collects hits for AppendMatching: their encoded bodies back to
// back in one slab grown through mempool.Frames, and how many records,
// field slots and string bytes building them takes. The zero value is
// empty; Release returns the slab, on every path.
type Matches struct {
	enc                    []byte
	records, fields, bytes int
}

// Size returns the collected hits' record, field and byte counts.
func (m *Matches) Size() (records, fields, bytes int) { return m.records, m.fields, m.bytes }

// AppendMatching appends to dst every record in the bucket that agrees
// with pm on its specified fields, in append order, and returns how many
// records the bucket holds. The comparison runs on the encoded bytes:
// every record is validated and counted, only the matches are copied, and
// nothing is materialised — dst.Build does that once, after the caller
// has collected all its buckets. A stored record with fewer fields than
// pm is an error; what was appended before it stays in dst.
func (s *Store) AppendMatching(bucket uint32, pm mkhash.PartialMatch, dst *Matches) (scanned int, err error) {
	err = s.walk(bucket, func(_ int64, frame []byte) error {
		scanned++
		body := frame[frameHeaderSize+1:]
		match, fields, bytes, err := matchRecord(body, pm)
		if err != nil {
			return err
		}
		if fields < len(pm) {
			return fmt.Errorf("pagestore: stored record has %d fields, the query %d", fields, len(pm))
		}
		if match {
			dst.enc = append(mempool.Frames.Grow(dst.enc, len(body)), body...)
			dst.records++
			dst.fields += fields
			dst.bytes += bytes
		}
		return nil
	})
	return scanned, err
}

// Build reserves exactly the collected hits' sizes on b and materialises
// them through it, calling fn for each in the order they were appended.
// Every byte is copied out, so the records outlive Release, and they cost
// the builder two allocations however many there are.
func (m *Matches) Build(b *mempool.RecordBuilder, fn func(rec mkhash.Record) error) error {
	b.Reserve(m.fields, m.bytes)
	for enc := m.enc; len(enc) > 0; {
		var rec mkhash.Record
		rec, enc = buildRecord(enc, b)
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Release returns the slab to mempool.Frames and empties m.
func (m *Matches) Release() {
	mempool.Frames.Put(m.enc)
	*m = Matches{}
}

// ScanInto calls fn for every record in the bucket, in append order: it
// is AppendMatching with nothing specified, then Build through b.
func (s *Store) ScanInto(bucket uint32, b *mempool.RecordBuilder, fn func(rec mkhash.Record) error) error {
	var all Matches
	defer all.Release()
	if _, err := s.AppendMatching(bucket, nil, &all); err != nil {
		return err
	}
	return all.Build(b, fn)
}

// Sync flushes appended frames to stable storage.
func (s *Store) Sync() error {
	t0 := time.Now()
	err := s.f.Sync()
	mSync.ObserveSince(t0)
	return err
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// uvarintLen returns the encoded size of v without encoding it.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// recordSize returns the exact encoded size of rec's body (field count
// followed by length-prefixed field values).
func recordSize(rec mkhash.Record) int {
	n := uvarintLen(uint64(len(rec)))
	for _, v := range rec {
		n += uvarintLen(uint64(len(v))) + len(v)
	}
	return n
}

// appendRecord serialises a record as a field count followed by
// length-prefixed field values.
func appendRecord(buf []byte, rec mkhash.Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rec)))
	for _, v := range rec {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// matchRecord is the one validator of an encoded record body: it checks
// the field count, every field length and that nothing trails, and
// reports the count, the field values' total bytes and whether each
// field pm specifies — of those the record has — equals the stored
// bytes. Nothing is materialised.
func matchRecord(body []byte, pm mkhash.PartialMatch) (match bool, fields, bytes int, err error) {
	count, n := binary.Uvarint(body)
	if n <= 0 || count > 1<<20 {
		return false, 0, 0, fmt.Errorf("pagestore: corrupt record header (field count %d)", count)
	}
	body = body[n:]
	match = true
	for i := 0; i < int(count); i++ {
		l, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < l {
			return false, 0, 0, errors.New("pagestore: corrupt field length")
		}
		if match && i < len(pm) && pm[i] != nil && string(body[n:n+int(l)]) != *pm[i] {
			match = false
		}
		bytes += int(l)
		body = body[n+int(l):]
	}
	if len(body) != 0 {
		return false, 0, 0, fmt.Errorf("pagestore: %d trailing bytes in record frame", len(body))
	}
	return match, int(count), bytes, nil
}

// decodeRecord validates one record body and materialises it into memory
// of its own: matchRecord, an exact reservation, buildRecord.
func decodeRecord(body []byte) (mkhash.Record, error) {
	_, fields, bytes, err := matchRecord(body, nil)
	if err != nil {
		return nil, err
	}
	b := mempool.NewRecordBuilder(false)
	b.Reserve(fields, bytes)
	rec, _ := buildRecord(body, b)
	return rec, nil
}

// buildRecord materialises the first of the bodies at the head of enc,
// which matchRecord has accepted, drawing the field-header slice and
// field bytes from b's chunks, and returns the bodies after it. enc may be
// recycled as soon as the call returns — every byte is copied out.
func buildRecord(enc []byte, b *mempool.RecordBuilder) (mkhash.Record, []byte) {
	fields, n := binary.Uvarint(enc)
	enc = enc[n:]
	rec := b.Fields(int(fields))
	for i := range rec {
		l, n := binary.Uvarint(enc)
		rec[i] = b.Bytes(enc[n : n+int(l)])
		enc = enc[n+int(l):]
	}
	return rec, enc
}
