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
package pagestore

import (
	"encoding/binary"
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

// Store is one device's durable bucket store.
type Store struct {
	f    *os.File
	path string
	// index maps bucket id to the file offsets of its record frames.
	index map[uint32][]int64
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
	s := &Store{f: f, path: path, index: make(map[uint32][]int64)}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	mOpens.Inc()
	mRecoveredRecords.Add(uint64(s.records))
	return s, nil
}

// recover scans the log, indexing valid frames and truncating at the
// first invalid one.
func (s *Store) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	fileSize := info.Size()
	var off int64
	var header [frameHeaderSize]byte
	for off+frameHeaderSize <= fileSize {
		if _, err := s.f.ReadAt(header[:], off); err != nil {
			return err
		}
		crc := binary.LittleEndian.Uint32(header[0:4])
		bucket := binary.LittleEndian.Uint32(header[4:8])
		plen := binary.LittleEndian.Uint32(header[8:12])
		if plen > maxPayload || off+frameHeaderSize+int64(plen) > fileSize {
			break // torn or corrupt tail
		}
		payload := mempool.Frames.Get(int(plen))
		if _, err := s.f.ReadAt(payload, off+frameHeaderSize); err != nil {
			mempool.Frames.Put(payload)
			return err
		}
		// Incremental CRC over header then payload — same digest as the
		// writer's single pass, no concatenation scratch.
		sum := crc32.ChecksumIEEE(header[4:12])
		sum = crc32.Update(sum, crc32.IEEETable, payload)
		if sum != crc || plen == 0 {
			// Corrupt frame, or one without its kind byte: end of the
			// valid prefix.
			mempool.Frames.Put(payload)
			break
		}
		switch payload[0] {
		case kindPut:
			s.index[bucket] = append(s.index[bucket], off)
			s.records++
		case kindTombstone:
			rec, err := decodeRecord(payload[1:])
			if err != nil {
				mempool.Frames.Put(payload)
				return fmt.Errorf("pagestore: corrupt tombstone at offset %d: %w", off, err)
			}
			if err := s.dropFromIndex(bucket, rec); err != nil {
				mempool.Frames.Put(payload)
				return err
			}
		default:
			kind := payload[0]
			mempool.Frames.Put(payload)
			return fmt.Errorf("pagestore: unknown frame kind %d at offset %d", kind, off)
		}
		mempool.Frames.Put(payload)
		off += frameHeaderSize + int64(plen)
	}
	if off < fileSize {
		if err := s.f.Truncate(off); err != nil {
			return err
		}
		mTornTails.Inc()
		obs.Infof("pagestore: %s: truncated torn tail at offset %d (was %d bytes)", s.path, off, fileSize)
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

// appendFrame writes one frame and returns its offset. The frame is
// encoded directly into one exactly-sized pooled buffer (header, kind,
// record body) and recycled after the write; the bytes on disk are
// identical to what the two-copy encoder historically produced.
func (s *Store) appendFrame(kind byte, bucket uint32, rec mkhash.Record) (int64, error) {
	plen := 1 + recordSize(rec)
	if plen > maxPayload {
		return 0, fmt.Errorf("pagestore: record of %d bytes exceeds limit", plen)
	}
	frame := mempool.Frames.Get(frameHeaderSize + plen)[:frameHeaderSize]
	binary.LittleEndian.PutUint32(frame[4:8], bucket)
	binary.LittleEndian.PutUint32(frame[8:12], uint32(plen))
	frame = append(frame, kind)
	frame = appendRecord(frame, rec)
	binary.LittleEndian.PutUint32(frame[0:4], crc32.ChecksumIEEE(frame[4:]))
	off := s.size
	_, err := s.f.WriteAt(frame, off)
	mempool.Frames.Put(frame)
	if err != nil {
		return 0, err
	}
	s.size += int64(frameHeaderSize + plen)
	return off, nil
}

// Append stores one record in the given bucket. The write is buffered by
// the OS until Sync.
func (s *Store) Append(bucket uint32, rec mkhash.Record) error {
	t0 := time.Now()
	off, err := s.appendFrame(kindPut, bucket, rec)
	mAppend.ObserveSince(t0)
	if err != nil {
		return err
	}
	s.index[bucket] = append(s.index[bucket], off)
	s.records++
	return nil
}

// recordsEqual compares two records field-wise.
func recordsEqual(a, b mkhash.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dropFromIndex removes every live offset in the bucket whose stored
// record equals rec, decrementing the record count.
func (s *Store) dropFromIndex(bucket uint32, rec mkhash.Record) error {
	offs := s.index[bucket]
	kept := offs[:0]
	for _, off := range offs {
		stored, _, err := s.readFrame(off)
		if err != nil {
			return err
		}
		if recordsEqual(stored, rec) {
			s.records--
			continue
		}
		kept = append(kept, off)
	}
	if len(kept) == 0 {
		delete(s.index, bucket)
	} else {
		s.index[bucket] = kept
	}
	return nil
}

// Delete removes every record equal to rec from the bucket, returning the
// number removed. A tombstone frame is appended so the deletion survives
// restarts; deleting a record that is not present writes nothing.
func (s *Store) Delete(bucket uint32, rec mkhash.Record) (int, error) {
	matches := 0
	for _, off := range s.index[bucket] {
		stored, _, err := s.readFrame(off)
		if err != nil {
			return 0, err
		}
		if recordsEqual(stored, rec) {
			matches++
		}
	}
	if matches == 0 {
		return 0, nil
	}
	if _, err := s.appendFrame(kindTombstone, bucket, rec); err != nil {
		return 0, err
	}
	mTombstones.Inc()
	if err := s.dropFromIndex(bucket, rec); err != nil {
		return 0, err
	}
	return matches, nil
}

// Compact rewrites the log with only live put frames (dropping tombstones
// and deleted records), fsyncs it, and atomically replaces the old file.
// Scan order within each bucket is preserved.
func (s *Store) Compact() error {
	t0 := time.Now()
	oldSize := s.size
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)
	next := &Store{f: tmp, path: s.path, index: make(map[uint32][]int64)}
	for bucket, offs := range s.index {
		for _, off := range offs {
			rec, _, err := s.readFrame(off)
			if err != nil {
				tmp.Close()
				return err
			}
			if err := next.Append(bucket, rec); err != nil {
				tmp.Close()
				return err
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	s.f = tmp
	s.index = next.index
	s.size = next.size
	s.records = next.records
	mCompactions.Inc()
	obs.Infof("pagestore: %s: compacted %d -> %d bytes (%d live records) in %v",
		s.path, oldSize, s.size, s.records, time.Since(t0))
	return old.Close()
}

// Scan calls fn for every record in the bucket, in append order.
func (s *Store) Scan(bucket uint32, fn func(rec mkhash.Record) error) error {
	for _, off := range s.index[bucket] {
		rec, _, err := s.readFrame(off)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
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

func (s *Store) readFrame(off int64) (mkhash.Record, int64, error) {
	payload, err := s.readPayload(off)
	if err != nil {
		return nil, 0, err
	}
	rec, err := decodeRecord(payload[1:]) // skip the kind byte
	end := off + frameHeaderSize + int64(len(payload))
	mempool.Frames.Put(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, end, nil
}

// readPayload reads one frame's payload into a pooled slab the caller
// must Put back once decoded.
func (s *Store) readPayload(off int64) ([]byte, error) {
	var header [frameHeaderSize]byte
	if _, err := s.f.ReadAt(header[:], off); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(header[8:12])
	if plen == 0 {
		return nil, fmt.Errorf("pagestore: empty frame at offset %d", off)
	}
	payload := mempool.Frames.Get(int(plen))
	if _, err := s.f.ReadAt(payload, off+frameHeaderSize); err != nil {
		mempool.Frames.Put(payload)
		return nil, err
	}
	return payload, nil
}

// ScanInto is Scan with the decoded records materialised through b's
// arena: field-header slices and field bytes come from the builder's
// chunks instead of two allocations per record, and in pooled mode the
// whole scan's memory recycles on the builder's Release. Records are
// only valid as long as b's arena is (see mempool.RecordBuilder).
func (s *Store) ScanInto(bucket uint32, b *mempool.RecordBuilder, fn func(rec mkhash.Record) error) error {
	for _, off := range s.index[bucket] {
		payload, err := s.readPayload(off)
		if err != nil {
			return err
		}
		rec, err := decodeRecordInto(payload[1:], b)
		mempool.Frames.Put(payload)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
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

func decodeRecord(payload []byte) (mkhash.Record, error) {
	rd := payload
	take := func() (uint64, error) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		rd = rd[n:]
		return v, nil
	}
	count, err := take()
	if err != nil {
		return nil, fmt.Errorf("pagestore: corrupt record header")
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("pagestore: implausible field count %d", count)
	}
	rec := make(mkhash.Record, 0, count)
	for i := uint64(0); i < count; i++ {
		l, err := take()
		if err != nil || uint64(len(rd)) < l {
			return nil, fmt.Errorf("pagestore: corrupt field length")
		}
		rec = append(rec, string(rd[:l]))
		rd = rd[l:]
	}
	if len(rd) != 0 {
		return nil, fmt.Errorf("pagestore: %d trailing bytes in record frame", len(rd))
	}
	return rec, nil
}

// decodeRecordInto is decodeRecord drawing the field-header slice and
// field bytes from b's arena instead of fresh allocations. payload may
// be recycled as soon as the call returns — every byte is copied out.
func decodeRecordInto(payload []byte, b *mempool.RecordBuilder) (mkhash.Record, error) {
	rd := payload
	take := func() (uint64, error) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		rd = rd[n:]
		return v, nil
	}
	count, err := take()
	if err != nil {
		return nil, fmt.Errorf("pagestore: corrupt record header")
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("pagestore: implausible field count %d", count)
	}
	fields := b.Fields(int(count))
	for i := range fields {
		l, err := take()
		if err != nil || uint64(len(rd)) < l {
			return nil, fmt.Errorf("pagestore: corrupt field length")
		}
		fields[i] = b.Bytes(rd[:l])
		rd = rd[l:]
	}
	if len(rd) != 0 {
		return nil, fmt.Errorf("pagestore: %d trailing bytes in record frame", len(rd))
	}
	return mkhash.Record(fields), nil
}
