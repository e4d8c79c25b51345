package mempool

import "unsafe"

// RecordBuilder carves records and their field strings out of two chunks
// sized in advance: Reserve says how many field slots and string bytes
// the records about to be built take and allocates exactly that, so a
// scan's whole answer costs two allocations instead of two per record.
// Past the reservation each record and string is an allocation of its
// own. The chunks are plain heap the records own outright: they stay
// valid forever. A builder is single-goroutine.
type RecordBuilder struct {
	bytes  []byte   // current byte chunk, append-only
	fields []string // current field chunk, carve-only
}

// NewRecordBuilder returns an empty builder. The parameter is ignored —
// it selected a pooled arena mode nothing uses — and stays only because
// bench/fxload/ladder.go passes one and only a [benchmark] PR may edit
// bench/.
func NewRecordBuilder(bool) *RecordBuilder { return &RecordBuilder{} }

// Reserve sizes the builder for what it is about to build: fields field
// slots and bytes string bytes. Where the current chunks lack the room it
// allocates chunks of exactly that size.
func (b *RecordBuilder) Reserve(fields, bytes int) {
	if fields > cap(b.fields)-len(b.fields) {
		b.fields = make([]string, 0, fields)
	}
	if bytes > cap(b.bytes)-len(b.bytes) {
		b.bytes = make([]byte, 0, bytes)
	}
}

// Fields returns a zeroed []string of length n, to be filled as one
// record's backing, carved from the field chunk while the reservation
// lasts.
func (b *RecordBuilder) Fields(n int) []string {
	if len(b.fields)+n > cap(b.fields) {
		return make([]string, n)
	}
	off := len(b.fields)
	b.fields = b.fields[:off+n]
	// Restrict capacity so an append on the record cannot clobber the
	// next record's fields.
	return b.fields[off : off+n : off+n]
}

// Bytes copies src into the byte chunk, while the reservation lasts, and
// returns it as a string view.
func (b *RecordBuilder) Bytes(src []byte) string {
	n := len(src)
	if n == 0 {
		return ""
	}
	if len(b.bytes)+n > cap(b.bytes) {
		return string(src)
	}
	off := len(b.bytes)
	b.bytes = append(b.bytes, src...)
	return unsafe.String(&b.bytes[off], n)
}

// Release does nothing — the records own the chunks — and stays because
// bench/fxload/ladder.go calls it.
func (b *RecordBuilder) Release() {}
