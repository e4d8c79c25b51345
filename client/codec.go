package client

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"fxdist"
)

// This file is the one fx/v1 result codec. RetrieveResult is the only
// wire type whose size grows with the answer, so it alone is encoded
// and decoded by hand; every other type stays with encoding/json. The
// encoder's output is byte for byte what encoding/json writes for the
// same struct, and the decoder accepts nothing encoding/json rejects
// and yields the same value for everything it accepts — the package's
// fuzz test holds both against a method-less mirror struct.

// AppendJSON appends r's JSON encoding to dst and returns the extended
// slice.
func (r *RetrieveResult) AppendJSON(dst []byte) []byte {
	return appendResult(dst, r.APIVersion, r.Records, r.DeviceBuckets,
		r.LargestResponseSize, r.TraceID, r.Coalesced, r.BatchSize)
}

// MarshalJSON implements json.Marshaler on top of AppendJSON.
func (r RetrieveResult) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// AppendRetrieveResult appends the fx/v1 envelope of an engine result
// to dst without first copying it into a RetrieveResult; batchSize is
// the size of the coalesced dispatch the query rode in (1 when it ran
// alone). An answer with no matches encodes as "records":[].
func AppendRetrieveResult(dst []byte, res fxdist.RetrieveResult, batchSize int) []byte {
	records := res.Records
	if records == nil {
		records = []fxdist.Record{}
	}
	coalesced := batchSize > 1
	if !coalesced {
		batchSize = 0
	}
	return appendResult(dst, APIVersion, records, res.DeviceBuckets,
		res.LargestResponseSize, res.TraceID, coalesced, batchSize)
}

// appendResult is the encoder: the struct's fields in declaration
// order, nil slices as null, the three trailing fields omitted when
// zero.
func appendResult[R ~[]string](dst []byte, apiVersion string, records []R, deviceBuckets []int,
	largest int, traceID uint64, coalesced bool, batchSize int) []byte {
	dst = append(dst, `{"api_version":`...)
	dst = appendString(dst, apiVersion)
	dst = append(dst, `,"records":`...)
	if records == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, rec := range records {
			if i > 0 {
				dst = append(dst, ',')
			}
			if rec == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, v := range rec {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendString(dst, v)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"device_buckets":`...)
	if deviceBuckets == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, n := range deviceBuckets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(n), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"largest_response_size":`...)
	dst = strconv.AppendInt(dst, int64(largest), 10)
	if traceID != 0 {
		dst = append(dst, `,"trace_id":`...)
		dst = strconv.AppendUint(dst, traceID, 10)
	}
	if coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if batchSize != 0 {
		dst = append(dst, `,"batch_size":`...)
		dst = strconv.AppendInt(dst, int64(batchSize), 10)
	}
	return append(dst, '}')
}

// verbatim[b] reports that encoding/json copies byte b into a string
// unchanged: printable ASCII other than the quote, the backslash and
// the three characters it escapes for HTML.
var verbatim = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's
// escaping: short escapes for \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, U+2028 and U+2029 escaped, each byte of
// invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if verbatim[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// The keys of a result object, in encoding order.
const (
	keyAPIVersion = iota
	keyRecords
	keyDeviceBuckets
	keyLargest
	keyTraceID
	keyCoalesced
	keyBatchSize
)

var resultKeys = [...]string{
	keyAPIVersion:    "api_version",
	keyRecords:       "records",
	keyDeviceBuckets: "device_buckets",
	keyLargest:       "largest_response_size",
	keyTraceID:       "trace_id",
	keyCoalesced:     "coalesced",
	keyBatchSize:     "batch_size",
}

// UnmarshalJSON implements json.Unmarshaler. Records costs a constant
// number of allocations however many records arrive: the record
// headers, one backing array for every field of every record, and one
// blob holding every value's bytes. Keys present in data overwrite r's
// fields, absent keys leave them alone, unknown keys are skipped and a
// repeated known key is an error.
func (r *RetrieveResult) UnmarshalJSON(data []byte) error {
	d := decoder{data: data}
	d.space()
	if err := d.result(r); err != nil {
		return err
	}
	return d.end()
}

// result decodes the result object (or null) at the cursor into r.
func (d *decoder) result(r *RetrieveResult) error {
	if d.null() {
		return nil
	}
	return d.object(resultKeys[:], func(key int) (err error) {
		switch key {
		case keyAPIVersion:
			err = d.string(&r.APIVersion)
		case keyRecords:
			r.Records, err = d.records()
		case keyDeviceBuckets:
			r.DeviceBuckets, err = d.ints()
		case keyLargest:
			err = d.int(&r.LargestResponseSize)
		case keyTraceID:
			if !d.null() {
				r.TraceID, err = d.uint(math.MaxUint64)
			}
		case keyCoalesced:
			err = d.bool(&r.Coalesced)
		case keyBatchSize:
			err = d.int(&r.BatchSize)
		default:
			err = d.skip()
		}
		return err
	})
}

// The members of a response frame that decodeResponse reads; jsonrpc
// and id are stepped over like any other key it does not know.
const (
	keyResult = iota
	keyError
)

var responseKeys = [...]string{keyResult: "result", keyError: "error"}

// decodeResponse decodes one JSON-RPC response frame in a single walk:
// the result member into out where it lies — by the codec above when
// out is a *RetrieveResult, by encoding/json on the member's bytes
// otherwise — and the error member into the returned object. Going
// through a Response instead would scan the whole body twice and copy
// the result out of it before the result's own decode starts.
func decodeResponse(data []byte, out any) (*ErrorObject, error) {
	d := decoder{data: data}
	var errObj *ErrorObject
	d.space()
	err := d.object(responseKeys[:], func(key int) error {
		switch key {
		case keyResult:
			switch out := out.(type) {
			case nil:
				return d.skip()
			case *RetrieveResult:
				return d.result(out)
			default:
				return d.value(out)
			}
		case keyError:
			return d.value(&errObj)
		}
		return d.skip()
	})
	if err == nil {
		err = d.end()
	}
	return errObj, err
}

// object walks the object at the cursor. It resolves each key against
// keys (-1 when it is none of them) and calls member with the cursor on
// the key's value; member must consume exactly that value.
func (d *decoder) object(keys []string, member func(key int) error) error {
	if !d.eat('{') {
		return d.errorf("want an object")
	}
	d.space()
	if d.eat('}') {
		return nil
	}
	seen := uint(0)
	for {
		d.space()
		key, err := d.key(keys)
		if err != nil {
			return err
		}
		d.space()
		if !d.eat(':') {
			return d.errorf("want ':' after object key")
		}
		d.space()
		if key >= 0 {
			if seen&(1<<key) != 0 {
				return d.errorf("repeated key %q", keys[key])
			}
			seen |= 1 << key
		}
		if err := member(key); err != nil {
			return err
		}
		d.space()
		if d.eat(',') {
			continue
		}
		if d.eat('}') {
			return nil
		}
		return d.errorf("want ',' or '}' in object")
	}
}

// decoder is a cursor over one JSON text. A scalar null leaves its
// target untouched and a null slice is nil, as in encoding/json.
type decoder struct {
	data []byte
	i    int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("client: malformed JSON at byte %d: %s", d.i, fmt.Sprintf(format, args...))
}

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) literal(lit string) bool {
	if rest := d.data[d.i:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// end checks that only white space follows the value.
func (d *decoder) end() error {
	d.space()
	if d.i != len(d.data) {
		return d.errorf("data after the top-level value")
	}
	return nil
}

// quiet[b] reports that byte b inside a JSON string stands for itself
// and needs no look: ASCII from the space up, bar quote and backslash.
var quiet = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return
}()

// rawString scans the string starting at the cursor and returns the
// bytes between its quotes. plain reports that those bytes are the
// string's value as they stand: no escapes, and valid UTF-8 (which
// encoding/json would otherwise repair with U+FFFD).
func (d *decoder) rawString() (raw []byte, plain bool, err error) {
	if !d.eat('"') {
		return nil, false, d.errorf("want a string")
	}
	data, start := d.data, d.i
	plain, ascii := true, true
	for i := start; i < len(data); {
		c := data[i]
		switch {
		case quiet[c]:
			i++
		case c == '"':
			d.i = i + 1
			raw = data[start:i]
			return raw, plain && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			plain = false
			i += 2 // the escaped byte cannot close the string
		case c < 0x20:
			d.i = i
			return nil, false, d.errorf("control byte in string")
		default:
			ascii = false
			i++
		}
	}
	d.i = len(data)
	return nil, false, d.errorf("unterminated string")
}

// unquote decodes a string that is not plain, quotes included in
// token; encoding/json owns the escape and repair rules.
func (d *decoder) unquote(token []byte) (s string, err error) {
	if err := json.Unmarshal(token, &s); err != nil {
		return "", d.errorf("%v", err)
	}
	return s, nil
}

func (d *decoder) string(dst *string) error {
	if d.null() {
		return nil
	}
	start := d.i
	raw, plain, err := d.rawString()
	switch {
	case err != nil:
	case !plain:
		*dst, err = d.unquote(d.data[start:d.i])
	case string(raw) == APIVersion:
		*dst = APIVersion
	default:
		*dst = string(raw)
	}
	return err
}

// key scans an object key and returns its index in keys, or -1. Like
// encoding/json it matches exactly first and then under Unicode case
// folding.
func (d *decoder) key(keys []string) (int, error) {
	start := d.i
	raw, plain, err := d.rawString()
	if err != nil {
		return -1, err
	}
	if plain {
		for k, want := range keys {
			if string(raw) == want {
				return k, nil
			}
		}
	}
	name := string(raw)
	if !plain {
		if name, err = d.unquote(d.data[start:d.i]); err != nil {
			return -1, err
		}
	}
	for k, want := range keys {
		if strings.EqualFold(name, want) {
			return k, nil
		}
	}
	return -1, nil
}

// uint scans a JSON number that is a whole number no larger than
// limit. encoding/json also refuses fractions and exponents for an
// integer target, so 1.0 and 1e2 are errors here too.
func (d *decoder) uint(limit uint64) (uint64, error) {
	start := d.i
	var n uint64
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		digit := uint64(d.data[d.i] - '0')
		if n > (limit-digit)/10 {
			return 0, d.errorf("integer out of range")
		}
		n = n*10 + digit
		d.i++
	}
	switch digits := d.i - start; {
	case digits == 0:
		return 0, d.errorf("want an integer")
	case digits > 1 && d.data[start] == '0':
		return 0, d.errorf("integer with a leading zero")
	}
	if d.i < len(d.data) {
		switch d.data[d.i] {
		case '.', 'e', 'E':
			return 0, d.errorf("want an integer, have a fraction or exponent")
		}
	}
	return n, nil
}

func (d *decoder) int(dst *int) error {
	if d.null() {
		return nil
	}
	neg := d.eat('-')
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	n, err := d.uint(limit)
	if err != nil {
		return err
	}
	if neg {
		*dst = int(-int64(n))
	} else {
		*dst = int(n)
	}
	return nil
}

func (d *decoder) bool(dst *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.errorf("want true or false")
	}
	return nil
}

// ints decodes an array of integers into one exactly sized slice.
func (d *decoder) ints() ([]int, error) {
	if d.null() {
		return nil, nil
	}
	if !d.eat('[') {
		return nil, d.errorf("want an array")
	}
	// One element more than there are commas before the closing
	// bracket; an array of integers nests nothing that could hide one.
	n := 1
	for _, c := range d.data[d.i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	out := make([]int, 0, n)
	d.space()
	if d.eat(']') {
		return out, nil
	}
	for {
		d.space()
		v := 0
		if err := d.int(&v); err != nil {
			return nil, err
		}
		out = append(out, v)
		d.space()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return out, nil
		}
		return nil, d.errorf("want ',' or ']' in array")
	}
}

// span steps over the value at the cursor without judging it and
// returns its bytes: up to the comma or closing bracket that ends it.
func (d *decoder) span() ([]byte, error) {
	start := d.i
	depth := 0
scan:
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case '"':
			if _, _, err := d.rawString(); err != nil {
				return nil, err
			}
			continue
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				break scan
			}
			depth--
		case ',':
			if depth == 0 {
				break scan
			}
		}
		d.i++
	}
	return d.data[start:d.i], nil
}

// skip steps over the value of a key the decoder has no use for;
// encoding/json judges whether it is JSON.
func (d *decoder) skip() error {
	start := d.i
	v, err := d.span()
	if err == nil && !json.Valid(v) {
		d.i = start
		err = d.errorf("malformed value")
	}
	return err
}

// value hands the value at the cursor to encoding/json.
func (d *decoder) value(out any) error {
	start := d.i
	v, err := d.span()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(v, out); err != nil {
		d.i = start
		return d.errorf("%v", err)
	}
	return nil
}

// records decodes the records array in two walks over the same bytes:
// the first checks the syntax and counts records, fields and value
// bytes, the second fills three allocations of exactly those sizes.
func (d *decoder) records() ([][]string, error) {
	if d.null() {
		return nil, nil
	}
	start := d.i
	var count recordSink
	if err := d.walkRecords(&count); err != nil {
		return nil, err
	}
	d.i = start
	fill := recordSink{
		fill: true,
		out:  make([][]string, 0, count.records),
		flat: make([]string, count.fields),
	}
	fill.blob.Grow(count.bytes)
	if err := d.walkRecords(&fill); err != nil {
		return nil, err
	}
	return fill.out, nil
}

// recordSink receives what walkRecords finds. The counting walk only
// counts; the filling walk makes every record a window of flat and
// every plain value a window of blob.
type recordSink struct {
	records, fields, bytes int

	fill bool
	out  [][]string
	flat []string
	blob strings.Builder
}

// plain takes a value whose bytes are its decoding.
func (s *recordSink) plain(raw []byte) {
	s.bytes += len(raw)
	if !s.fill {
		s.fields++
		return
	}
	// blob was grown to its final size, so it never moves and every
	// String() is a view of the same bytes.
	off := s.blob.Len()
	s.blob.Write(raw)
	s.value(s.blob.String()[off:])
}

// value takes a decoded value: a null, or one that needed unquoting.
func (s *recordSink) value(v string) {
	if s.fill {
		s.flat[s.fields] = v
	}
	s.fields++
}

// endRecord closes the record whose first field has index first.
func (s *recordSink) endRecord(first int, null bool) {
	s.records++
	if !s.fill {
		return
	}
	if null {
		s.out = append(s.out, nil)
		return
	}
	// Capacity stops at the record's end so that appending to one
	// record cannot overwrite the next.
	s.out = append(s.out, s.flat[first:s.fields:s.fields])
}

func (d *decoder) walkRecords(s *recordSink) error {
	if !d.eat('[') {
		return d.errorf("want an array of records")
	}
	d.space()
	if d.eat(']') {
		return nil
	}
	for {
		d.space()
		if d.null() {
			s.endRecord(s.fields, true)
		} else if err := d.walkRecord(s); err != nil {
			return err
		}
		d.space()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return nil
		}
		return d.errorf("want ',' or ']' in records")
	}
}

func (d *decoder) walkRecord(s *recordSink) error {
	if !d.eat('[') {
		return d.errorf("want a record (an array of strings)")
	}
	first := s.fields
	d.space()
	if d.eat(']') {
		s.endRecord(first, false)
		return nil
	}
	for {
		d.space()
		if d.null() {
			s.value("")
		} else {
			start := d.i
			raw, plain, err := d.rawString()
			switch {
			case err != nil:
				return err
			case plain:
				s.plain(raw)
			case !s.fill:
				s.value("")
			default:
				// Only the filling walk pays for the slow path, so a
				// bad escape is reported from there.
				v, err := d.unquote(d.data[start:d.i])
				if err != nil {
					return err
				}
				s.value(v)
			}
		}
		d.space()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			s.endRecord(first, false)
			return nil
		}
		return d.errorf("want ',' or ']' in record")
	}
}
