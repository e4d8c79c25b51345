// Package client is the public client contract of the fxgate serving
// tier: the JSON-RPC 2.0 envelope, the versioned request/response
// types of every fx.* method, and a small HTTP client speaking them
// over persistent connections. These types ARE the wire format — the
// gateway (internal/gate, cmd/fxgate) writes exactly their JSON, so
// embedding this package is all a Go caller needs to talk to a
// cluster's front door, and the JSON shapes double as the contract for
// non-Go clients (see README "Serving tier" for curl examples).
//
// Errors cross the wire as the unified fxdist.Error taxonomy: every
// JSON-RPC error object carries the stable machine-readable code in
// its data, and the client folds it back into a *fxdist.Error, so
// errors.As-based handling is identical in-process and remote.
package client

import (
	"encoding/json"
	"time"

	"fxdist"
)

// APIVersion stamps every result envelope. It only changes on an
// incompatible redesign of the method surface; additive fields do not
// bump it.
const APIVersion = "fx/v1"

// The gateway's method registry. Method names are part of the wire
// contract.
const (
	MethodRetrieve      = "fx.retrieve"
	MethodRetrieveBatch = "fx.retrieveBatch"
	MethodExplain       = "fx.explain"
	MethodHealth        = "fx.health"
)

// Request is one JSON-RPC 2.0 request frame.
type Request struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
}

// Response is one JSON-RPC 2.0 response frame; exactly one of Result
// and Error is set.
type Response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *ErrorObject    `json:"error,omitempty"`
}

// ErrorObject is the JSON-RPC error member. Code follows the JSON-RPC
// numeric conventions; Data carries the fxdist taxonomy, which is the
// source of truth (the numeric code is derived from it).
type ErrorObject struct {
	Code    int        `json:"code"`
	Message string     `json:"message"`
	Data    *ErrorData `json:"data,omitempty"`
}

// ErrorData is the taxonomy payload of a wire error.
type ErrorData struct {
	// Code is the stable fxdist.ErrorCode string.
	Code string `json:"code"`
	// Device is the failing device id; omitted when the failure is not
	// device-scoped.
	Device *int `json:"device,omitempty"`
	// TraceID joins the failure against the serving node's
	// /debug/traces.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Coverage is the served fraction of |R(q)| on partial_result.
	Coverage float64 `json:"coverage,omitempty"`
	// RetryAfterMillis mirrors the HTTP Retry-After hint for
	// rate_limited/overloaded rejections.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// JSON-RPC numeric codes. The -32601/-32602/-32603 values are the
// spec's; taxonomy codes with no spec equivalent map into the
// implementation-defined -32000..-32099 server-error range. Stable.
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	codeInternal       = -32603
)

var wireCodes = map[fxdist.ErrorCode]int{
	fxdist.ErrCodeInvalidQuery:  codeInvalidParams,
	fxdist.ErrCodeUnknownMethod: codeMethodNotFound,
	fxdist.ErrCodeInternal:      codeInternal,
	fxdist.ErrCodeUnauthorized:  -32001,
	fxdist.ErrCodeRateLimited:   -32002,
	fxdist.ErrCodeOverloaded:    -32003,
	fxdist.ErrCodeTimeout:       -32004,
	fxdist.ErrCodeCanceled:      -32005,
	fxdist.ErrCodeDeviceFailure: -32006,
	fxdist.ErrCodePartialResult: -32007,
	fxdist.ErrCodeBreakerOpen:   -32008,
	fxdist.ErrCodeFaultInjected: -32009,
}

// ParseError builds the envelope-level JSON-RPC parse error (-32700).
func ParseError(msg string) *ErrorObject {
	return &ErrorObject{Code: codeParse, Message: msg,
		Data: &ErrorData{Code: string(fxdist.ErrCodeInvalidQuery)}}
}

// InvalidRequestError builds the envelope-level invalid-request error
// (-32600): a frame that is not a well-formed JSON-RPC 2.0 request.
func InvalidRequestError(msg string) *ErrorObject {
	return &ErrorObject{Code: codeInvalidRequest, Message: msg,
		Data: &ErrorData{Code: string(fxdist.ErrCodeInvalidQuery)}}
}

// WireCode returns the JSON-RPC numeric code for a taxonomy code
// (unknown codes map to the internal-error code).
func WireCode(code fxdist.ErrorCode) int {
	if c, ok := wireCodes[code]; ok {
		return c
	}
	return codeInternal
}

// FromError projects a classified fxdist error onto the wire.
func FromError(e *fxdist.Error) *ErrorObject {
	if e == nil {
		return nil
	}
	data := &ErrorData{
		Code:     string(e.Code),
		TraceID:  e.TraceID,
		Coverage: e.Coverage,
	}
	if e.Device >= 0 {
		dev := e.Device
		data.Device = &dev
	}
	if e.RetryAfter > 0 {
		data.RetryAfterMillis = e.RetryAfter.Milliseconds()
	}
	return &ErrorObject{Code: WireCode(e.Code), Message: e.Message, Data: data}
}

// Err folds a wire error back into the unified taxonomy. The numeric
// code is only consulted when the taxonomy data is missing (a foreign
// or pre-taxonomy server).
func (o *ErrorObject) Err() *fxdist.Error {
	if o == nil {
		return nil
	}
	e := &fxdist.Error{Code: fxdist.ErrCodeInternal, Message: o.Message, Device: -1}
	if o.Data != nil && o.Data.Code != "" {
		e.Code = fxdist.ErrorCode(o.Data.Code)
		e.TraceID = o.Data.TraceID
		e.Coverage = o.Data.Coverage
		if o.Data.Device != nil {
			e.Device = *o.Data.Device
		}
		if o.Data.RetryAfterMillis > 0 {
			e.RetryAfter = time.Duration(o.Data.RetryAfterMillis) * time.Millisecond
		}
		return e
	}
	switch o.Code {
	case codeMethodNotFound:
		e.Code = fxdist.ErrCodeUnknownMethod
	case codeInvalidParams, codeInvalidRequest, codeParse:
		e.Code = fxdist.ErrCodeInvalidQuery
	}
	return e
}

// RetrieveParams are the fx.retrieve / fx.explain parameters: field
// name → required value; unmentioned fields are unspecified.
type RetrieveParams struct {
	Query map[string]string `json:"query"`
}

// BatchParams are the fx.retrieveBatch parameters.
type BatchParams struct {
	Queries []map[string]string `json:"queries"`
}

// RetrieveResult is the fx.retrieve result envelope. It is the one wire
// type with a hand-written JSON codec (codec.go); the JSON is what
// encoding/json would write for the struct as declared here.
type RetrieveResult struct {
	APIVersion string `json:"api_version"`
	// Records are the matching records, field values in schema order.
	// In a decoded result every value is a view of one buffer and every
	// record a window of one array, so a single value kept alive keeps
	// the whole answer alive: strings.Clone a value that is to outlive
	// the result.
	Records [][]string `json:"records"`
	// DeviceBuckets[i] is the number of qualified buckets device i
	// accessed — the paper's per-device response size.
	DeviceBuckets []int `json:"device_buckets"`
	// LargestResponseSize is max(DeviceBuckets); the strict-optimality
	// bound says it never exceeds ceil(rq/m) on an FX cluster.
	LargestResponseSize int `json:"largest_response_size"`
	// TraceID joins the retrieval against the serving node's traces.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// BatchItem is one query's outcome inside a fx.retrieveBatch result:
// exactly one of Result and Error is set.
type BatchItem struct {
	Result *RetrieveResult `json:"result,omitempty"`
	Error  *ErrorObject    `json:"error,omitempty"`
}

// BatchResult is the fx.retrieveBatch result envelope; Items is
// index-aligned with the request's Queries.
type BatchResult struct {
	APIVersion string      `json:"api_version"`
	Items      []BatchItem `json:"items"`
}

// ExplainResult is the fx.explain result envelope: the compiled plan's
// view of a query without running it.
type ExplainResult struct {
	APIVersion string `json:"api_version"`
	// Shape is the query-shape key ('s' per specified field, '*' per
	// unspecified) — the unit of plan caching, admission and auditing.
	Shape string `json:"shape"`
	// RQ is |R(q)|, Bound the paper's ceil(|R(q)|/M), M the device
	// count.
	RQ    int `json:"rq"`
	Bound int `json:"bound"`
	M     int `json:"m"`
	// DeviceLoads[i] is the exact number of qualified buckets device i
	// would access; present only when the gateway knows the allocator.
	DeviceLoads []int `json:"device_loads,omitempty"`
	// PlanCached reports whether the shape's compiled plan is resident
	// in the serving cluster's plan cache right now.
	PlanCached bool `json:"plan_cached"`
}

// HealthResult is the fx.health result envelope.
type HealthResult struct {
	APIVersion string `json:"api_version"`
	Status     string `json:"status"`
	// Backend is the serving cluster's kind: memory, durable,
	// replicated or netdist.
	Backend string `json:"backend"`
	M       int    `json:"m"`
	// Fields are the schema's field names, in order.
	Fields        []string `json:"fields"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}
