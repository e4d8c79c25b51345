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
	"fxdist/internal/storage"
)

// Server-side half of the elastic rescale protocol (DESIGN §12). Every
// control op but Cutover names the epoch it acts on, and one rule holds
// on every server: a view holds exactly the buckets its device owns
// under its spec. Prepare builds the next epoch's view over a
// copy-on-write copy of the serving partition cut to those buckets
// (storage.Share); Install writes only that view; Cutover promotes it
// and Abort drops it, so a rescale never writes the serving view. A
// target serves no epoch of its own, so it serves its prepared view at
// once and is never cut over: the next Prepare builds on it.

// noEpoch is the epoch of a server that serves none: a rescale target
// before the Prepare that names the epoch it joins.
const noEpoch = -1

// NewTargetServer builds an empty server for device deviceID joining a
// growing fleet under spec. It serves no epoch until the rescale's
// Prepare names the one it joins; the migration then installs its
// buckets, and there is nothing to cut over on it.
func NewTargetServer(deviceID int, spec decluster.Spec) (*Server, error) {
	s, err := NewServer(deviceID, spec, nil)
	if err != nil {
		return nil, err
	}
	s.cur.epoch = noEpoch
	return s, nil
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

// prepare builds the view of the epoch the request names, the one after
// the serving epoch (any, on a target, under the spec it was built for),
// over the serving view's buckets this device owns under the spec, and
// makes it next. A server already serving the epoch under the spec — on
// a resumed run's re-Prepare, or promoted when a partial cutover is
// replayed — answers success and changes nothing.
func (s *Server) prepare(req *Request) Response {
	var spec decluster.Spec
	if err := json.Unmarshal(req.SpecJSON, &spec); err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: decode spec: %v", err)}
	}
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	base := s.serving()
	switch v := s.view(req.Epoch); {
	case s.backup != nil:
		return Response{ID: req.ID, Err: "netdist: prepare: replicated deployments do not support live rescale"}
	case v != nil && v.spec.Equal(spec):
		return Response{ID: req.ID}
	case v != nil:
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: epoch %d is prepared under %+v (abort it first)", req.Epoch, v.spec)}
	case base.epoch == noEpoch && !base.spec.Equal(spec):
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: a rescale target under %+v, not %+v", base.spec, spec)}
	case base.epoch != noEpoch && req.Epoch != base.epoch+1:
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: epoch %d named, serving epoch %d", req.Epoch, base.epoch)}
	}
	// A device id outside the new M retires and serves no next epoch.
	next, err := newView(s.deviceID, req.Epoch, spec, base.part)
	if err == nil && !slices.Equal(next.fs.Sizes, base.fs.Sizes) {
		err = fmt.Errorf("grid %v, serving %v", next.fs.Sizes, base.fs.Sizes)
	}
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: prepare: %v", err)}
	}
	next.part = storage.Share(base.part, next.im.Allocator())[s.deviceID]
	s.cur, s.next = base, next
	return Response{ID: req.ID}
}

// fetch returns one bucket's records from the view of the request's
// epoch; an absent bucket is an empty, successful answer.
func (s *Server) fetch(req *Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	v, err := s.viewFor(req)
	if err == nil && (req.Bucket < 0 || req.Bucket >= v.fs.NumBuckets()) {
		err = fmt.Errorf("bucket %d outside grid", req.Bucket)
	}
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: fetch: %v", err)}
	}
	resp := Response{ID: req.ID, Buckets: 1}
	resp.Scanned = v.part.Scan(uint32(req.Bucket), nil, func(k uint32) { resp.found.Encode(v.part, k) })
	return resp
}

// install stores one bucket into the view of the request's epoch,
// replacing what it held there, once admitted for this device under that
// view's spec. Its values go into the partition's own dictionary, so
// wire buffers never alias the partition and the bucket costs its ids.
func (s *Server) install(req *Request) Response {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	v, err := s.viewFor(req)
	if err == nil {
		err = storage.AdmitBucket(v.im.Allocator(), v.dev, req.Bucket)
	}
	if err == nil {
		err = v.part.Put(uint32(req.Bucket), req.Payload)
	}
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: install: %v", err)}
	}
	return Response{ID: req.ID, Buckets: 1, Scanned: len(req.Payload)}
}

// cutover promotes the prepared view. A server with none (one already
// promoted) answers success, so a replayed broadcast is idempotent.
func (s *Server) cutover(req *Request) Response {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.next != nil {
		s.cur, s.next = s.next, nil
	}
	return Response{ID: req.ID}
}

// abort abandons the epoch the request names: a server that prepared it
// drops the prepared view. Any other — one that never prepared it, or
// was promoted into it — answers success unchanged.
func (s *Server) abort(req *Request) Response {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.next != nil && s.next.epoch == req.Epoch {
		s.next = nil
	}
	return Response{ID: req.ID}
}

// description is what a server says of itself to a dialing coordinator
// (OpDescribe): its device id, the epoch described — the asked one when
// the server serves it, else its serving one (noEpoch on a rescale
// target before its Prepare) — the allocator spec of the view serving
// that epoch, nil when there is none, and the device whose backup
// partition it serves at that epoch, nil on a plain server.
type description struct {
	Device int             `json:"device"`
	Epoch  int             `json:"epoch"`
	Spec   *decluster.Spec `json:"spec,omitempty"`
	Backup *int            `json:"backup,omitempty"`
}

// describe answers OpDescribe.
func (s *Server) describe(req *Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	v := s.view(req.Epoch)
	if v == nil {
		v = s.serving()
	}
	d := description{Device: s.deviceID, Epoch: v.epoch}
	if d.Epoch != noEpoch {
		d.Spec = &v.spec
	}
	if s.backup != nil && v == s.cur {
		d.Backup = &s.backup.dev
	}
	b, err := json.Marshal(d)
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: describe: %v", err)}
	}
	return Response{ID: req.ID, StatsJSON: b}
}

// digest answers OpDigest over every bucket of the view serving the
// request's epoch, which holds exactly the buckets its device owns.
func (s *Server) digest(req *Request) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	v, err := s.viewFor(req)
	if err != nil {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: digest: %v", err)}
	}
	var d mkhash.Digest
	v.part.EachBucket(func(b uint32) { d = d.Plus(v.part.Digest(b)) })
	return Response{ID: req.ID, Scanned: d.Records, StatsJSON: strconv.AppendUint(nil, d.Sum, 10)}
}

// Coordinator-side control methods: rebalance.Transport over any one
// round trip per call. A Coordinator's runs through ask — the same fault
// injector, counters, latency histogram, in-flight gauge and Retry-After
// handling as a retrieval's, so chaos schedules and dashboards cover the
// migration stream too.
type controlFunc func(ctx context.Context, dev int, req Request) (Response, error)

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

// Prepare hands device dev the allocator spec it serves epoch under.
func (op controlFunc) Prepare(ctx context.Context, dev, epoch int, spec decluster.Spec) error {
	b, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("netdist: encode rescale spec: %w", err)
	}
	_, err = op(ctx, dev, Request{Control: OpPrepare, Epoch: epoch, SpecJSON: b})
	return err
}

// FetchBucket returns bucket's records from device dev's view of epoch
// (empty when nothing hashed there).
func (op controlFunc) FetchBucket(ctx context.Context, dev, epoch, bucket int) ([]mkhash.Record, error) {
	resp, err := op(ctx, dev, Request{Control: OpFetch, Epoch: epoch, Bucket: bucket})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// InstallBucket stores bucket's records into device dev's view of epoch.
// Idempotent.
func (op controlFunc) InstallBucket(ctx context.Context, dev, epoch, bucket int, recs []mkhash.Record) error {
	_, err := op(ctx, dev, Request{Control: OpInstall, Epoch: epoch, Bucket: bucket, Payload: recs})
	return err
}

// CutoverDevice promotes device dev's prepared view.
func (op controlFunc) CutoverDevice(ctx context.Context, dev int) error {
	_, err := op(ctx, dev, Request{Control: OpCutover})
	return err
}

// Digest digests the records device dev owns at epoch (OpDigest).
func (op controlFunc) Digest(ctx context.Context, dev, epoch int) (mkhash.Digest, error) {
	resp, err := op(ctx, dev, Request{Control: OpDigest, Epoch: epoch})
	if err != nil {
		return mkhash.Digest{}, err
	}
	sum, err := strconv.ParseUint(string(resp.StatsJSON), 10, 64)
	if err != nil {
		return mkhash.Digest{}, fmt.Errorf("netdist: device %d digest: %w", dev, err)
	}
	return mkhash.Digest{Records: resp.Scanned, Sum: sum}, nil
}

// AbortRescale abandons epoch on device dev: dropped if it prepared it.
func (op controlFunc) AbortRescale(ctx context.Context, dev, epoch int) error {
	_, err := op(ctx, dev, Request{Control: OpAbort, Epoch: epoch})
	return err
}

// EpochOf returns the epoch the server at addr serves spec at: its own
// epoch when it serves spec, else the next one, which a survivor not yet
// cut over has prepared. A rescale journal holds the specs but not the
// epoch; its replay asks a survivor.
func EpochOf(addr string, spec decluster.Spec) (int, error) {
	c := &Coordinator{}
	dc, err := c.dialDevice(context.Background(), addr)
	if err != nil {
		return 0, fmt.Errorf("netdist: dial %s: %w", addr, err)
	}
	defer dc.conn.Close()
	d, err := c.describe(dc)
	switch {
	case err != nil:
		return 0, fmt.Errorf("netdist: describe %s: %w", addr, err)
	case d.Spec != nil && d.Spec.Equal(spec):
		return d.Epoch, nil
	}
	return d.Epoch + 1, nil
}
