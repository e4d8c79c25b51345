package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"fxdist"
)

// This file is the fx/v1 codec: RetrieveResult, the one wire type whose
// size grows with the answer, and the request frames the client writes
// and the gate reads; every other type stays with encoding/json. Each
// encoder writes what encoding/json writes. The request decoder gives
// encoding/json's verdict and value on every input; the result decoder
// accepts nothing it rejects and yields the same value for everything it
// accepts. The fuzz tests hold them all against method-less mirrors.

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
	dst = appendString(append(dst, `{"api_version":`...), apiVersion)
	dst = appendArray(append(dst, `,"records":`...), records, func(dst []byte, rec R) []byte {
		return appendArray(dst, []string(rec), appendString)
	})
	dst = appendArray(append(dst, `,"device_buckets":`...), deviceBuckets, appendInt)
	dst = appendInt(append(dst, `,"largest_response_size":`...), largest)
	if traceID != 0 {
		dst = strconv.AppendUint(append(dst, `,"trace_id":`...), traceID, 10)
	}
	if coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if batchSize != 0 {
		dst = appendInt(append(dst, `,"batch_size":`...), batchSize)
	}
	return append(dst, '}')
}

// appendArray appends xs as a JSON array, each element written by elem,
// or null when xs is nil.
func appendArray[T any](dst []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, x)
	}
	return append(dst, ']')
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

// escapes[b] is how encoding/json writes byte b in a string: 0 as
// itself, 'u' as \u00XX (control bytes and, for HTML, < > &), 1 as the
// start of a UTF-8 sequence to check, any other letter as a backslash
// and that letter.
var escapes = func() (t [256]byte) {
	for b := range t {
		switch {
		case b >= utf8.RuneSelf:
			t[b] = 1
		case b < 0x20 || b == '<' || b == '>' || b == '&':
			t[b] = 'u'
		}
	}
	t['"'], t['\\'], t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = '"', '\\', 'b', 'f', 'n', 'r', 't'
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
		e := escapes[s[i]]
		if e == 0 {
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case e == 'u':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		case e != 1:
			dst = append(append(dst, s[start:i]...), '\\', e)
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendRequest appends the frame of one call: what json.Marshal writes
// for the Request of that id and method whose Params are
// json.Marshal(params). params is a RetrieveParams, a BatchParams or
// nil, which leaves them out.
func appendRequest(dst []byte, id uint64, method string, params any) []byte {
	dst = strconv.AppendUint(append(dst, `{"jsonrpc":"2.0","id":`...), id, 10)
	dst = appendString(append(dst, `,"method":`...), method)
	switch p := params.(type) {
	case RetrieveParams:
		dst = append(appendQuery(append(dst, `,"params":{"query":`...), p.Query), '}')
	case BatchParams:
		dst = append(appendArray(append(dst, `,"params":{"queries":`...), p.Queries, appendQuery), '}')
	}
	return append(dst, '}')
}

// appendQuery appends a query as json.Marshal writes a map: null when
// nil, the keys sorted.
func appendQuery(dst []byte, q map[string]string) []byte {
	if q == nil {
		return append(dst, "null"...)
	}
	var stack [16]string
	keys := stack[:0]
	for k := range q {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(appendString(dst, k), ':'), q[k])
	}
	return append(dst, '}')
}

// The keys of a result object, of a response frame (the ones
// decodeResponse reads) and of a request frame.
var (
	resultKeys   = [...]string{"api_version", "records", "device_buckets", "largest_response_size", "trace_id", "coalesced", "batch_size"}
	responseKeys = [...]string{"result", "error"}
	requestKeys  = [...]string{"jsonrpc", "id", "method", "params"}
)

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
	return d.object(resultKeys[:], true, func(key string) (err error) {
		switch key {
		case "api_version":
			err = d.string(&r.APIVersion)
		case "records":
			r.Records, err = d.records()
		case "device_buckets":
			r.DeviceBuckets, err = d.ints()
		case "largest_response_size":
			err = d.int(&r.LargestResponseSize)
		case "trace_id":
			if !d.null() {
				r.TraceID, err = d.integer(false, 64)
			}
		case "coalesced":
			err = d.bool(&r.Coalesced)
		case "batch_size":
			err = d.int(&r.BatchSize)
		default:
			err = d.skip()
		}
		return err
	})
}

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
	err := d.object(responseKeys[:], true, func(key string) error {
		switch key {
		case "result":
			switch out := out.(type) {
			case nil:
				return d.skip()
			case *RetrieveResult:
				return d.result(out)
			default:
				return d.value(out)
			}
		case "error":
			var e *ErrorObject // errObj's address would escape, on every success
			err := d.value(&e)
			errObj = e
			return err
		}
		return d.skip()
	})
	if err == nil {
		err = d.end()
	}
	return errObj, err
}

// DecodeRequests appends the frames of a request body to into: one
// frame, or those of a batch envelope (an array). Verdict and values
// are encoding/json's for a Request or a []Request, except that ID and
// Params are windows of data, not copies. Every frame's syntax is
// checked whole; Params.Decode then decodes its params by method.
func DecodeRequests(data []byte, into []Request) (reqs []Request, batch bool, err error) {
	d := decoder{data: data}
	d.space()
	frame := func() error {
		into = append(into, Request{})
		return d.request(&into[len(into)-1])
	}
	if batch = d.i < len(data) && data[d.i] == '['; batch {
		err = d.container('[', ']', frame)
	} else {
		err = frame()
	}
	if err == nil {
		err = d.end()
	}
	return into, batch, err
}

// request decodes the frame (or null) at the cursor into r. Unlike a
// result, a frame may repeat a key, and the last one wins.
func (d *decoder) request(r *Request) error {
	if d.null() {
		return nil
	}
	return d.object(requestKeys[:], false, func(key string) (err error) {
		switch key {
		case "jsonrpc":
			err = d.string(&r.JSONRPC)
		case "id":
			r.ID, err = d.raw()
		case "method":
			err = d.string(&r.Method)
		case "params":
			r.Params, err = d.raw()
		default:
			err = d.skip()
		}
		return err
	})
}

// Params are a frame's params decoded by its method, each query as
// (field name, value) pairs in arrival order, a later pair overriding
// an earlier one of the same name; a null query is nil, an empty one is
// not. Every name and value is a view of one string the decode owns.
type Params struct {
	Query   [][2]string   // fx.retrieve and fx.explain
	Queries [][][2]string // fx.retrieveBatch

	mem pairs // what Decode decoded into, for the next Decode to reuse
}

// Decode decodes the params of a frame of method into p with
// encoding/json's verdict and value for a RetrieveParams or a
// BatchParams (no queries on error); other methods take none. It reuses
// the memory p's last Decode decoded into, overwriting those queries'
// strings: a Params kept per request decodes without allocating.
func (p *Params) Decode(method string, data []byte) (err error) {
	d := decoder{data: data}
	s := &p.mem
	s.flat, s.blob = s.flat[:0], s.blob[:0]
	p.Query, p.Queries = nil, nil
	keys := [1]string{"query"}
	value := func() error { return d.query(s, data, &p.Query) }
	switch method {
	case MethodRetrieve, MethodExplain:
	case MethodRetrieveBatch:
		keys[0], value = "queries", func() error {
			// As json.Unmarshal fills a slice: null makes it nil, element i
			// decodes into whatever an earlier array of a repeated key left
			// at i, even past the length a shorter one cut it to, and an
			// empty array is a fresh empty slice.
			qs := &p.Queries
			if d.null() {
				*qs = nil
				return nil
			}
			n := 0
			err := d.container('[', ']', func() error {
				if n < cap(*qs) {
					*qs = (*qs)[:n+1]
				} else {
					*qs = append(*qs, nil)
				}
				n++
				return d.query(s, data, &(*qs)[n-1])
			})
			if *qs = (*qs)[:n]; n == 0 {
				*qs = [][][2]string{}
			}
			return err
		}
	default:
		return nil
	}
	if d.space(); !d.null() {
		err = d.object(keys[:], false, func(k string) error {
			if k == "" {
				return d.skip()
			}
			return value()
		})
	}
	if err == nil {
		err = d.end()
	}
	if err != nil {
		p.Query, p.Queries = nil, nil
	}
	return err
}

// pairs holds the queries of one params walk: names and values copied
// into blob, each query a window of flat.
type pairs struct {
	flat [][2]string
	blob []byte
}

// text copies a string's value into the blob and returns a view of it; a
// blob that grows leaves the strings it handed out where they are.
func (s *pairs) text(raw []byte, plain bool) string {
	off := len(s.blob)
	if plain {
		s.blob = append(s.blob, raw...)
	} else {
		s.blob = appendUnquoted(s.blob, raw)
	}
	return unsafe.String(unsafe.SliceData(s.blob[off:]), len(s.blob)-off)
}

// query decodes the query object (or null) at the cursor into *q as
// json.Unmarshal fills a map: null makes it nil, an object adds its
// pairs (a null value as "") to any already there. The first query
// sizes the blob for all of params and the pairs for up to 16 (a colon
// in a string is no pair); more grow as they are decoded.
func (d *decoder) query(s *pairs, params []byte, q *[][2]string) error {
	if d.null() {
		*q = nil
		return nil
	}
	if len(s.flat) == 0 && len(s.blob) == 0 && cap(s.blob) < len(params) {
		s.flat = make([][2]string, 0, min(16, bytes.Count(params, []byte{':'})))
		s.blob = make([]byte, 0, len(params))
	}
	start := len(s.flat)
	err := d.members(func(key []byte, plain bool) error {
		name, value := s.text(key, plain), ""
		if !d.null() {
			raw, plain, err := d.rawString()
			if err != nil {
				return err
			}
			value = s.text(raw, plain)
		}
		s.flat = append(s.flat, [2]string{name, value})
		return nil
	})
	// Capacity ends with the object, so that adding to *q later copies
	// it instead of writing over the next query.
	if obj := s.flat[start:len(s.flat):len(s.flat)]; *q == nil {
		*q = obj
	} else {
		*q = append(*q, obj...)
	}
	return err
}

// object walks the object at the cursor like members, handing member
// each key as the one of keys it matches, or "" when it is none of
// them. Under once a repeated key is an error: where encoding/json lets
// the last one win, a result decoded twice over would be merged, not
// replaced.
func (d *decoder) object(keys []string, once bool, member func(key string) error) error {
	seen := uint(0)
	return d.members(func(raw []byte, plain bool) error {
		k := match(keys, raw, plain)
		if k < 0 {
			return member("")
		}
		if once && seen&(1<<k) != 0 {
			return d.errorf("repeated key %q", keys[k])
		}
		seen |= 1 << k
		return member(keys[k])
	})
}

// members walks the object at the cursor, calling member with each key
// (as rawString returns it) and the cursor on its value, which member
// must consume.
func (d *decoder) members(member func(key []byte, plain bool) error) error {
	return d.container('{', '}', func() error {
		key, plain, err := d.rawString()
		if err != nil {
			return err
		}
		d.space()
		if !d.eat(':') {
			return d.errorf("want ':' after an object key")
		}
		d.space()
		return member(key, plain)
	})
}

// maxDepth is encoding/json's nesting limit: a text with more arrays
// and objects open at once is not JSON to it.
const maxDepth = 10000

// container walks the array or object at the cursor, calling each with
// the cursor on each element (a member: at its key), which each must
// consume.
func (d *decoder) container(open, close byte, each func() error) error {
	if !d.eat(open) {
		return d.errorf("want %q", open)
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.space()
	for !d.eat(close) {
		if err := each(); err != nil {
			return err
		}
		d.space()
		if d.eat(close) {
			break
		}
		if !d.eat(',') {
			return d.errorf("want ',' or %q", close)
		}
		d.space()
		if d.i < len(d.data) && d.data[d.i] == close {
			return d.errorf("want an element after ','")
		}
	}
	d.depth--
	return nil
}

// match resolves a key against keys: its index, or -1 when it is none
// of them. Like encoding/json it matches exactly first and then under
// Unicode case folding.
func match(keys []string, raw []byte, plain bool) int {
	for k, want := range keys {
		if plain && string(raw) == want {
			return k
		}
	}
	name := string(raw)
	if !plain {
		name = unquote(raw)
	}
	return slices.IndexFunc(keys, func(want string) bool { return strings.EqualFold(name, want) })
}

// decoder is a cursor over one JSON text. A scalar null leaves its
// target untouched and a null slice is nil, as in encoding/json.
type decoder struct {
	data  []byte
	i     int
	depth int // arrays and objects open at the cursor
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("JSON at byte %d: %s", d.i, fmt.Sprintf(format, args...))
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

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// rawString scans the string at the cursor, checking its escapes, and
// returns the bytes between its quotes. plain reports that they are its
// value: no escapes, and valid UTF-8 (or encoding/json would repair it).
func (d *decoder) rawString() (raw []byte, plain bool, err error) {
	if !d.eat('"') {
		return nil, false, d.errorf("want a string")
	}
	data, start := d.data, d.i
	plain, ascii := true, true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case escapes[c] == 0:
			i++
		case c == '"':
			d.i = i + 1
			raw = data[start:i]
			return raw, plain && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			plain = false
			switch {
			case i+1 < len(data) && unescape[data[i+1]] != 0:
				i += 2
			case i+6 <= len(data) && data[i+1] == 'u' && hex4(data[i+2:]) >= 0:
				i += 6
			default:
				d.i = i
				return nil, false, d.errorf("bad escape in string")
			}
		case c < 0x20:
			d.i = i
			return nil, false, d.errorf("control byte in string")
		default: // < > & and the bytes of UTF-8 sequences
			ascii = ascii && c < utf8.RuneSelf
			i++
		}
	}
	d.i = len(data)
	return nil, false, d.errorf("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	if n, err := strconv.ParseUint(string(s[:4]), 16, 16); err == nil {
		return rune(n)
	}
	return -1
}

// unquote is appendUnquoted into a string of its own.
func unquote(raw []byte) string {
	b := appendUnquoted(make([]byte, 0, len(raw)), raw)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendUnquoted appends the value of a string rawString has checked to
// b: its escapes decoded, and — as encoding/json repairs them — every
// byte of invalid UTF-8 and every surrogate escape that is not half of a
// pair as U+FFFD.
func appendUnquoted(b, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				low := rune(-1)
				if len(raw) >= i+6 && raw[i] == '\\' && raw[i+1] == 'u' {
					low = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, low); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// interned are values a decoded string takes without a copy of its own.
var interned = [...]string{APIVersion, "2.0", MethodRetrieve, MethodRetrieveBatch, MethodExplain, MethodHealth}

func (d *decoder) string(dst *string) error {
	if d.null() {
		return nil
	}
	raw, plain, err := d.rawString()
	switch i := slices.Index(interned[:], string(raw)); {
	case err != nil:
		return err
	case !plain:
		*dst = unquote(raw)
	case i >= 0:
		*dst = interned[i]
	default:
		*dst = string(raw)
	}
	return nil
}

// integer parses the number at the cursor as an integer of bitSize
// bits, refusing, as encoding/json does, a fraction, an exponent or a
// value out of range.
func (d *decoder) integer(signed bool, bitSize int) (n uint64, err error) {
	start := d.i
	if err = d.number(); err != nil {
		return 0, err
	}
	if signed {
		var i int64
		i, err = strconv.ParseInt(string(d.data[start:d.i]), 10, bitSize)
		n = uint64(i)
	} else {
		n, err = strconv.ParseUint(string(d.data[start:d.i]), 10, bitSize)
	}
	if err != nil {
		d.i = start
		return 0, d.errorf("want an integer of %d bits", bitSize)
	}
	return n, nil
}

func (d *decoder) int(dst *int) error {
	if d.null() {
		return nil
	}
	n, err := d.integer(true, strconv.IntSize)
	if err == nil {
		*dst = int(n)
	}
	return err
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
	// One element more than there are commas before the closing
	// bracket; an array of integers nests nothing that could hide one.
	rest := d.data[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]int, 0, 1+bytes.Count(rest, []byte{','}))
	err := d.container('[', ']', func() error {
		v := 0
		err := d.int(&v)
		out = append(out, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// skip steps over the value at the cursor, checking its syntax.
func (d *decoder) skip() error {
	if d.i == len(d.data) {
		return d.errorf("want a value")
	}
	switch c := d.data[d.i]; {
	case c == '"':
		_, _, err := d.rawString()
		return err
	case c == '{':
		return d.members(func([]byte, bool) error { return d.skip() })
	case c == '[':
		return d.container('[', ']', d.skip)
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case d.literal("true") || d.literal("false") || d.null():
		return nil
	}
	return d.errorf("want a value")
}

// number steps over a number: [-] int [frac] [exp], int with no
// leading zero.
func (d *decoder) number() error {
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		return d.errorf("want a digit")
	}
	if d.eat('.') && d.digits() == 0 {
		return d.errorf("want a digit after the decimal point")
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return d.errorf("want a digit in the exponent")
		}
	}
	return nil
}

// digits steps over a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// raw steps over the value at the cursor and returns its bytes, a
// window of the data.
func (d *decoder) raw() ([]byte, error) {
	start := d.i
	err := d.skip()
	return d.data[start:d.i:d.i], err
}

// value hands the value at the cursor to encoding/json.
func (d *decoder) value(out any) error {
	start := d.i
	v, err := d.raw()
	if err == nil {
		if err = json.Unmarshal(v, out); err != nil {
			d.i = start
			err = d.errorf("%v", err)
		}
	}
	return err
}

// records decodes the records array in two walks over the same bytes:
// the first checks the syntax and counts records, fields and value
// bytes, the second fills three allocations of those sizes.
func (d *decoder) records() ([][]string, error) {
	if d.null() {
		return nil, nil
	}
	start := d.i
	var n recordSink
	if err := d.walkRecords(&n); err != nil {
		return nil, err
	}
	d.i = start
	s := recordSink{fill: true, out: make([][]string, 0, n.records), flat: make([]string, 0, n.fields)}
	s.blob.Grow(n.bytes)
	if err := d.walkRecords(&s); err != nil {
		return nil, err
	}
	return s.out, nil
}

// recordSink is what a walk of the records array counts and, when it
// fills, decodes into: every record a window of flat, every plain value
// a view of blob, which was grown to its final size and never moves.
type recordSink struct {
	records, fields, bytes int

	fill bool
	out  [][]string
	flat []string
	blob strings.Builder
}

// walkRecords walks the records array, counting into s and filling it
// when s.fill is set.
func (d *decoder) walkRecords(s *recordSink) error {
	return d.container('[', ']', func() error {
		s.records++
		if d.null() {
			if s.fill {
				s.out = append(s.out, nil)
			}
			return nil
		}
		first := len(s.flat)
		err := d.container('[', ']', func() error {
			s.fields++
			v := ""
			if !d.null() {
				raw, plain, err := d.rawString()
				switch {
				case err != nil:
					return err
				case !s.fill:
					s.bytes += len(raw)
				case plain:
					off := s.blob.Len()
					s.blob.Write(raw)
					v = s.blob.String()[off:]
				default: // only the filling walk pays for the slow path
					v = unquote(raw)
				}
			}
			if s.fill {
				s.flat = append(s.flat, v)
			}
			return nil
		})
		if s.fill {
			// Capacity stops at the record's end so that appending to one
			// record cannot overwrite the next.
			s.out = append(s.out, s.flat[first:len(s.flat):len(s.flat)])
		}
		return err
	})
}
