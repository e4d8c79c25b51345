package netdist

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

// Server-side half of the elastic rescale protocol. A rescale runs as
// an epoch transition: the migration driver Prepares every surviving
// server with the next epoch's allocator spec (the server then answers
// queries at both epochs), streams each moving bucket with Fetch from
// its old owner and Install on its new one, and finally Cutovers — the
// prepared view becomes current, the epoch bumps, and buckets the
// server no longer owns are pruned. Abort at any point before cutover
// deletes the installed buckets and drops the prepared view, returning
// the server byte-for-byte to its pre-rescale state (the migration only
// ever copies; the old partition stays authoritative until cutover).

// SetEpoch declares the server's base epoch. Fresh servers joining a
// cluster mid-rescale (the grow targets M..2M-1) start at the new epoch
// with an empty partition: they were never part of the old epoch, so
// there is nothing to prepare or cut over on them. Call before Serve.
func (s *Server) SetEpoch(epoch int) {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	s.epoch = epoch
}

// Epoch returns the server's current declustering epoch.
func (s *Server) Epoch() int {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	return s.epoch
}

// control dispatches one rescale control operation.
func (s *Server) control(req *Request) Response {
	switch req.Control {
	case OpPrepare:
		return s.prepare(req)
	case OpFetch:
		return s.fetch(req)
	case OpInstall:
		return s.install(req)
	case OpCutover:
		return s.cutover(req)
	case OpAbort:
		return s.abort(req)
	case OpDescribe:
		return s.describe(req)
	case OpDigest:
		return s.digest(req)
	default:
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: unknown control op %d", req.Control)}
	}
}

// prepare builds the next-epoch view from the spec in the request.
// Idempotent: re-preparing with the same spec succeeds (the resume path
// after a coordinator crash), with a different one fails. A server that
// already serves the requested spec answers success WITHOUT creating a
// next view: after a partial cutover the driver's replay re-broadcasts
// Prepare, and an already-promoted server must not prepare a spurious
// current→current transition — the replayed cutover would bump it a
// second epoch ahead of the stragglers and split the fleet.
func (s *Server) prepare(req *Request) Response {
	var spec decluster.Spec
	if err := json.Unmarshal(req.SpecJSON, &spec); err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: decode spec: %v", err)}
	}
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.backup != nil {
		return Response{ID: req.ID, Err: "netdist: prepare: replicated deployments do not support live rescale"}
	}
	if specEqual(s.cur.spec, spec) {
		return Response{ID: req.ID}
	}
	if s.next != nil {
		if specEqual(s.next.spec, spec) {
			return Response{ID: req.ID}
		}
		return Response{ID: req.ID, Err: "netdist: prepare: a different rescale is already prepared (abort it first)"}
	}
	// The next view serves the same partition: Install adds the buckets
	// moving here, Cutover prunes the ones moving away. A device id
	// outside the new M is a device that retires and serves no next epoch.
	next, err := newView(s.deviceID, spec, s.cur.part)
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: %v", err)}
	}
	if next.fs.NumFields() != s.cur.fs.NumFields() {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: %d fields, serving %d", next.fs.NumFields(), s.cur.fs.NumFields())}
	}
	for i, size := range s.cur.fs.Sizes {
		if next.fs.Sizes[i] != size {
			return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: field %d sized %d, serving %d", i, next.fs.Sizes[i], size)}
		}
	}
	s.next, s.installed = next, make(map[int]struct{})
	return Response{ID: req.ID}
}

// fetch returns one bucket's records from the current partition. An
// absent bucket (nothing hashed there) is an empty, successful answer.
func (s *Server) fetch(req *Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	if req.Bucket < 0 || req.Bucket >= s.cur.fs.NumBuckets() {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: fetch: bucket %d outside grid", req.Bucket)}
	}
	recs := s.cur.part[req.Bucket]
	resp := Response{ID: req.ID, Buckets: 1, Scanned: len(recs)}
	for _, r := range recs {
		resp.Records = serverHits.AppendOne(resp.Records, r)
	}
	return resp
}

// install stores one bucket into the next-epoch partition. The bucket
// must pass admission for this device under the prepared spec (or under
// the current spec on a fresh server already at the new epoch). Records
// are copied out of the request, so wire buffers never alias the
// partition.
func (s *Server) install(req *Request) Response {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	v := s.cur
	if s.next != nil {
		v = s.next
	}
	if err := v.admit(storage.Partition{req.Bucket: req.Payload}); err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: install: %v", err)}
	}
	if len(req.Payload) == 0 {
		// An empty move: make the install idempotent by clearing any
		// previous (also empty-in-practice) content.
		delete(v.part, req.Bucket)
	} else {
		v.part[req.Bucket] = engine.CloneRecords(req.Payload)
	}
	if s.next != nil {
		s.installed[req.Bucket] = struct{}{}
	}
	return Response{ID: req.ID, Buckets: 1, Scanned: len(req.Payload)}
}

// cutover promotes the prepared view to current and prunes buckets this
// device no longer owns. A server with nothing prepared answers success
// (fresh rescale targets are already at the new epoch), so the driver's
// broadcast — and its replay after a crash — is idempotent.
func (s *Server) cutover(req *Request) Response {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.next == nil {
		return Response{ID: req.ID}
	}
	alloc := s.next.im.Allocator()
	var coords []int
	for idx := range s.next.part {
		coords = s.next.fs.Coords(idx, coords[:0])
		if alloc.Device(coords) != s.deviceID {
			delete(s.next.part, idx)
		}
	}
	s.cur, s.next, s.installed = s.next, nil, nil
	s.epoch++
	return Response{ID: req.ID}
}

// abort drops the prepared view and deletes every bucket installed
// during the rescale — the rollback to the pre-rescale epoch. A server
// with nothing prepared answers success (idempotent broadcast).
func (s *Server) abort(req *Request) Response {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.next == nil {
		return Response{ID: req.ID}
	}
	for idx := range s.installed {
		delete(s.cur.part, idx)
	}
	s.next, s.installed = nil, nil
	return Response{ID: req.ID}
}

// description is what a server says of itself to a dialing coordinator
// (OpDescribe): its device id, and the allocator spec of the view that
// serves the asked epoch — nil when it serves no such epoch (yet).
type description struct {
	Device int             `json:"device"`
	Spec   *decluster.Spec `json:"spec,omitempty"`
}

// describe answers OpDescribe.
func (s *Server) describe(req *Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	d := description{Device: s.deviceID}
	if v, err := s.viewFor(req); err == nil {
		d.Spec = &v.spec
	}
	b, err := json.Marshal(d)
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: describe: %v", err)}
	}
	return Response{ID: req.ID, StatsJSON: b}
}

// digest answers OpDigest over exactly the buckets the epoch's view
// would walk for a query with every field free. The partition is not the
// answer: a prepared view shares it with the serving one, so until
// cutover it also holds the buckets the new layout moves away.
func (s *Server) digest(req *Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	v, err := s.viewFor(req)
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: digest: %v", err)}
	}
	var d mkhash.Digest
	walk := v.im.Walk(query.Walk{}, query.All(v.fs.NumFields()), v.dev)
	for coords := walk.Next(); coords != nil; coords = walk.Next() {
		d = d.Plus(mkhash.DigestOf(v.part[v.fs.Linear(coords)]))
	}
	return Response{ID: req.ID, Scanned: d.Records, StatsJSON: strconv.AppendUint(nil, d.Sum, 10)}
}

// specEqual compares two allocator specs field by field.
func specEqual(a, b decluster.Spec) bool {
	return a.Method == b.Method && a.M == b.M && slices.Equal(a.Sizes, b.Sizes) &&
		slices.Equal(a.Kinds, b.Kinds) && slices.Equal(a.Multipliers, b.Multipliers)
}

// Coordinator-side control methods. Each is one round trip against one
// device's server through ask — the same fault injector, counters,
// latency histogram, in-flight gauge and Retry-After handling as a
// retrieval's, so chaos schedules and dashboards cover the migration
// stream too.

// controlOp runs one rescale control round trip against device dev.
func (c *Coordinator) controlOp(ctx context.Context, dev int, req Request) (Response, error) {
	req.AsDevice = -1
	resp, release, err := c.ask(ctx, dev, req, "")
	if err != nil {
		return Response{}, err
	}
	if len(resp.Records) > 0 {
		// Control responses outlive the wire buffers: deep-copy the
		// records and recycle the pooled slabs immediately.
		recs := engine.CloneRecords(resp.Records)
		clientHits.Put(resp.Records)
		resp.Records = recs
	}
	if release != nil {
		release()
	}
	return resp, nil
}

// Prepare hands device dev the next epoch's allocator spec.
func (c *Coordinator) Prepare(ctx context.Context, dev int, spec decluster.Spec) error {
	b, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("netdist: encode rescale spec: %w", err)
	}
	_, err = c.controlOp(ctx, dev, Request{Control: OpPrepare, SpecJSON: b})
	return err
}

// FetchBucket returns bucket's records from device dev's current
// partition (empty when nothing hashed there).
func (c *Coordinator) FetchBucket(ctx context.Context, dev, bucket int) ([]mkhash.Record, error) {
	resp, err := c.controlOp(ctx, dev, Request{Control: OpFetch, Bucket: bucket})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// InstallBucket stores bucket's records into device dev's next-epoch
// partition. Idempotent.
func (c *Coordinator) InstallBucket(ctx context.Context, dev, bucket int, recs []mkhash.Record) error {
	_, err := c.controlOp(ctx, dev, Request{Control: OpInstall, Bucket: bucket, Payload: recs})
	return err
}

// CutoverDevice promotes device dev's prepared view to current.
func (c *Coordinator) CutoverDevice(ctx context.Context, dev int) error {
	_, err := c.controlOp(ctx, dev, Request{Control: OpCutover})
	return err
}

// Digest digests the records device dev owns at epoch (OpDigest).
func (c *Coordinator) Digest(ctx context.Context, dev, epoch int) (mkhash.Digest, error) {
	resp, err := c.controlOp(ctx, dev, Request{Control: OpDigest, Epoch: epoch})
	if err != nil {
		return mkhash.Digest{}, err
	}
	sum, err := strconv.ParseUint(string(resp.StatsJSON), 10, 64)
	if err != nil {
		return mkhash.Digest{}, fmt.Errorf("netdist: device %d digest: %w", dev, err)
	}
	return mkhash.Digest{Records: resp.Scanned, Sum: sum}, nil
}

// AbortRescale drops device dev's prepared view and installed buckets.
func (c *Coordinator) AbortRescale(ctx context.Context, dev int) error {
	_, err := c.controlOp(ctx, dev, Request{Control: OpAbort})
	return err
}
