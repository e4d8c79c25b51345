// Package netdist turns the paper's parallel-device model into an actual
// distributed system: one TCP server per device, each holding the bucket
// partition a declustering allocator assigns to it, and a coordinator
// that fans a partial match query out to the devices that own one of its
// qualified buckets and merges the results. Every device answers with
// the per-device inverse mapping of package query — it enumerates only
// its own qualified buckets.
//
// The wire protocol is versioned, length-prefixed binary frames
// (codec.go): a coordinator opens with a 4-byte magic carrying the
// version, the server acks it, and both sides speak binary; any other
// opening is rejected with ErrProtocol. Allocator configuration travels
// as a decluster.Spec so a device server can be started on a different
// process or machine from the data loader.
package netdist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/storage"
)

// Request is one coordinator-to-device message.
type Request struct {
	// ID matches the response to its request; requests pipeline over one
	// connection. Assigned by the coordinator.
	ID uint64
	// Spec is the hashed bucket-level query (query.Unspecified for free
	// fields).
	Spec []int
	// Match carries the value filters (nil for a free field): devices
	// re-check record values because hashing collides. On the wire each
	// field is one presence byte, then the value.
	Match mkhash.PartialMatch
	// AsDevice, when >= 0 and not the server's own id, asks a replicated
	// server to answer from the backup partition it holds for that device
	// (coordinator failover). NewRequest sets it to -1.
	AsDevice int
	// TraceID and ParentSpan propagate the coordinator's trace across the
	// wire: the server opens its serving span as a child of ParentSpan
	// inside TraceID, so one query stitches into a single span tree even
	// across processes. Zero means untraced.
	TraceID    uint64
	ParentSpan uint64
	// Stats asks the server for its telemetry snapshot instead of a
	// query: the response carries the node's metrics registry serialised
	// as StatsJSON. It bypasses load shedding — a drowning node's stats
	// are exactly the ones the fleet view needs, and the coordinator's
	// stats pull doubles as its health probe, so a drowning node must
	// still look alive.
	Stats bool

	// Epoch names the declustering epoch a query or control op acts on
	// (viewFor). A fleet that never rescaled serves epoch 0. On the binary
	// wire the rescale extension (Epoch through Payload) is a
	// trailing-optional section gated by a flags bit, which a query frame
	// at epoch 0 leaves unset and so carries none of.
	Epoch int
	// Control, when non-zero, marks a rescale control operation (the
	// Op* constants) instead of a query. Control ops bypass load
	// shedding — the migration driver bounds its own concurrency — and
	// serialise against queries on the server's view lock.
	Control int
	// Bucket is the linear bucket index for OpFetch / OpInstall.
	Bucket int
	// SpecJSON carries the next epoch's allocator spec (a JSON-encoded
	// decluster.Spec) for OpPrepare.
	SpecJSON []byte
	// Payload carries the bucket's records for OpInstall.
	Payload []mkhash.Record
}

// Rescale control operations (Request.Control).
const (
	// OpPrepare hands the server the spec of the epoch the request
	// names, the one after its own; it serves that epoch's view beside
	// its own until Cutover or Abort. A rescale target learns its epoch
	// from it.
	OpPrepare = 1 + iota
	// OpFetch returns one bucket's records at the request's epoch.
	OpFetch
	// OpInstall stores one bucket's records at the request's epoch,
	// replacing what it held there (idempotent).
	OpInstall
	// OpCutover promotes the prepared view; a no-op on a server with none
	// (one already promoted), so the driver can replay it.
	OpCutover
	// OpAbort abandons the request's epoch: a server that prepared it is
	// back in its state before Prepare; any other is left as it is.
	OpAbort
	// OpDescribe answers which device the server is, which epoch it
	// serves — the request's, else its current one — under which
	// allocator spec and whose backup it holds (JSON in the response's
	// trailing blob). Dial asks every
	// server: a query goes only to the devices its plan says own a
	// qualified bucket, so "addrs[i] serves device i under one allocator"
	// is the correctness of every answer and is checked, not assumed.
	OpDescribe
	// OpDigest digests the records the request's epoch owns on the
	// server: their count in Scanned, their mkhash.Digest sum in decimal
	// in the trailing blob. The rescale driver sums it across each
	// epoch's devices to prove the copy before any read reaches the new
	// epoch.
	OpDigest
)

// NewRequest builds the wire request for a hashed query and its
// value-level filters.
func NewRequest(spec []int, pm mkhash.PartialMatch) Request {
	return Request{Spec: spec, Match: pm, AsDevice: -1}
}

// Response is one device-to-coordinator message.
type Response struct {
	// ID echoes the request's ID.
	ID uint64
	// Err is non-empty when the device rejected the request.
	Err string
	// Records are the matching records from this device's partition, as
	// a coordinator decodes them.
	Records []mkhash.Record
	// found is what a server sends in their place: the matching records
	// encoded straight from its ids, in a pooled slab released once the
	// response is on the wire.
	found mkhash.Encoded
	// Buckets is the number of qualified buckets the device accessed.
	Buckets int
	// Scanned is the number of records the device examined.
	Scanned int
	// RetryAfterMillis, when > 0 alongside a non-empty Err, is the
	// server's load-shedding hint: it rejected the request because it is
	// overloaded and asks not to be re-contacted for this many
	// milliseconds (the wire protocol's Retry-After). The coordinator's
	// retry budget honors it as the minimum backoff.
	RetryAfterMillis int64
	// StatsJSON answers a Stats request: the node's telemetry snapshot
	// (obs.NodeStats) as an opaque JSON blob, so the frame layout
	// stays stable as metrics evolve. OpDescribe and OpDigest answer in
	// it too. Trailing-optional on the binary wire; empty on every other
	// response.
	StatsJSON []byte
}

// Server is one device's network frontend.
type Server struct {
	deviceID int
	// dataMu guards the views and the partitions behind them: queries
	// take the read side, rescale control ops the write side. Outside a
	// rescale the lock is uncontended.
	dataMu sync.RWMutex
	// cur serves the server's epoch (an empty view at noEpoch on a
	// rescale target); next, from a rescale's Prepare to its Cutover or
	// Abort, the epoch it prepares, over its own copy of cur's buckets;
	// backup, when non-nil, the ring predecessor's partition at cur's
	// epoch (NewReplicatedServer). viewFor picks among them.
	cur, next, backup *view

	sm     serverMetrics
	reg    *obs.Registry
	tracer *obs.Tracer // the server's own spans, joined to the coordinator's tree by trace ID
	// shapeCounts caches the per-shape request counters so the serve loop
	// never re-resolves registry entries, nor forms a string to look one
	// up; the federated fleet view sums these across nodes.
	shapeMu     sync.RWMutex
	shapeCounts map[string]*obs.Counter

	// Load shedding (SetShedding): above shedLimit concurrent requests
	// the server rejects with a Retry-After hint instead of queueing.
	shedLimit   atomic.Int64
	shedAfterMs atomic.Int64
	inflightN   atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
}

// view is one device-local half the server can answer: the partition of
// device dev under the allocator spec describes, at epoch. A server holds
// up to three — serving, prepared next epoch, ring predecessor's backup.
type view struct {
	dev   int
	epoch int
	spec  decluster.Spec
	fs    decluster.FileSystem
	im    *query.InverseMapper
	part  storage.Partition
}

// newView builds the view of device dev's partition under spec at epoch;
// a nil partition is an empty one.
func newView(dev, epoch int, spec decluster.Spec, part storage.Partition) (*view, error) {
	alloc, err := spec.Build()
	if err != nil {
		return nil, err
	}
	fs := alloc.FileSystem()
	if dev < 0 || dev >= fs.M {
		return nil, fmt.Errorf("device id %d outside [0,%d)", dev, fs.M)
	}
	if part == nil {
		part = mkhash.NewTable(fs.NumFields())
	}
	return &view{dev: dev, epoch: epoch, spec: spec, fs: fs, im: query.NewInverseMapper(alloc), part: part}, nil
}

// serverSpans is the size of a server's span ring. A server opens one
// short span per device request and retains no trees: eight in-process
// servers hold what a cluster's 256-span ring holds.
const serverSpans = 32

// NewServer builds a device server from a serialized allocator spec and
// the device's bucket partition (keyed by FileSystem.Linear index). The
// server verifies that every bucket it is handed actually belongs to this
// device under the allocator and holds records of the file's arity — a
// partitioning bug fails fast here rather than as silently wrong query
// results.
func NewServer(deviceID int, spec decluster.Spec, buckets storage.Partition) (*Server, error) {
	cur, err := newView(deviceID, 0, spec, buckets)
	if err == nil {
		err = storage.Admit(cur.part, cur.im.Allocator(), deviceID)
	}
	if err != nil {
		return nil, fmt.Errorf("netdist: %w", err)
	}
	s := &Server{
		deviceID:    deviceID,
		cur:         cur,
		shapeCounts: make(map[string]*obs.Counter),
		reg:         newNodeRegistry(),
		tracer:      obs.NewTracer(serverSpans),
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
	s.sm = newServerMetrics(s.reg, deviceID, func() float64 { return float64(s.inflightN.Load()) })
	return s, nil
}

// DeviceID returns the device this server fronts.
func (s *Server) DeviceID() int { return s.deviceID }

// Metrics returns the server's own metric registry: what its /metrics
// renders and what it answers a stats pull with. Each server has its
// own, so N servers in one process are N nodes.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// DebugHandler serves the server's observability: its /metrics, its own
// /debug/traces, /debug/pprof/ and the process's /debug/mempool.
func (s *Server) DebugHandler() http.Handler {
	return obs.HandlerFor(mempool.Endpoint(), obs.MetricsEndpoint(s.Metrics),
		obs.TracesEndpoint(func() *obs.Tracer { return s.tracer }))
}

// shapeCounter returns (caching) the request counter of the shape whose
// key is shape's bytes.
func (s *Server) shapeCounter(shape []byte) *obs.Counter {
	s.shapeMu.RLock()
	c := s.shapeCounts[string(shape)]
	s.shapeMu.RUnlock()
	if c != nil {
		return c
	}
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	c = s.reg.Counter("fxdist_netdist_server_shape_requests_total",
		"Requests answered by the device server, by query shape.",
		obs.L("device", strconv.Itoa(s.deviceID)), obs.L("shape", string(shape)))
	s.shapeCounts[string(shape)] = c
	return c
}

// stats snapshots the server's registry for a Stats request.
func (s *Server) stats(id uint64) Response {
	st := obs.LocalNodeStats(nodeName(s.deviceID), s.reg)
	b, err := obs.EncodeNodeStats(st)
	if err != nil {
		return Response{ID: id, Err: fmt.Sprintf("netdist: encode stats: %v", err)}
	}
	return Response{ID: id, StatsJSON: b}
}

// SetShedding enables load shedding: beyond maxInflight concurrent
// requests the server rejects new ones with a Retry-After hint of
// retryAfter instead of queueing them behind slow scans. maxInflight
// <= 0 disables shedding. Stats pulls and control operations are never
// shed.
func (s *Server) SetShedding(maxInflight int, retryAfter time.Duration) {
	s.shedLimit.Store(int64(maxInflight))
	s.shedAfterMs.Store(retryAfter.Milliseconds())
}

// Serve accepts connections on l until the listener is closed (by Close
// or externally). Each connection handles a sequence of Request/Response
// pairs. Serve on an already-closed server closes l and returns nil.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			delete(s.listeners, l)
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting and drops open connections.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

// negotiateServer completes the server half of the handshake: the peer
// must lead with wireMagic inside the handshake window, which is acked
// before binary frames flow both ways. A peer on another FXB version is
// answered with this server's magic — so its dial fails naming both
// versions — and any other opening gets no reply; both are ErrProtocol
// and the connection is dropped.
func negotiateServer(conn net.Conn) (*binServerCodec, error) {
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeWindow)) //nolint:errcheck // best effort
	var lead [len(wireMagic)]byte
	_, err := io.ReadFull(br, lead[:])
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // best effort
	if err != nil {
		return nil, err
	}
	if err := checkMagic(lead); err != nil {
		if isFXB(lead) {
			conn.Write(wireMagic[:]) //nolint:errcheck // the connection is being dropped
		}
		return nil, err
	}
	if _, err := conn.Write(wireMagic[:]); err != nil {
		return nil, err
	}
	return &binServerCodec{w: conn, r: br}, nil
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	codec, err := negotiateServer(conn)
	if err != nil {
		if errors.Is(err, ErrProtocol) {
			obs.Logger().Info("netdist: dropped connection", "device", s.deviceID, "peer", conn.RemoteAddr(), "err", err)
		}
		return // closed before the handshake, or not an FXB peer
	}
	// One request, one enumeration, one shape key and one span per
	// connection: the loop is serial, so each is reused by the next
	// request once the response is written (see binServerCodec.decode).
	var (
		req   Request
		walk  query.Walk
		shape []byte
		span  obs.Span
	)
	for {
		if err := codec.readRequest(&req); err != nil {
			return // connection closed or corrupt stream
		}
		if req.Stats {
			// Stats pulls answer before shedding: an overloaded node's
			// telemetry is exactly what the fleet view needs to show, and
			// the pull is the coordinator's health probe.
			resp := s.stats(req.ID)
			if err := codec.writeResponse(&resp); err != nil {
				return
			}
			continue
		}
		if req.Control != 0 {
			// Rescale control ops bypass shedding (the migration driver
			// bounds its own concurrency and must make progress under
			// load); they serialise with queries on the view lock.
			resp := s.control(&req)
			err := codec.writeResponse(&resp)
			resp.found.Release()
			if err != nil {
				return
			}
			continue
		}
		if n, limit := s.inflightN.Add(1), s.shedLimit.Load(); limit > 0 && n > limit {
			s.inflightN.Add(-1)
			s.sm.shed.Inc()
			resp := Response{ID: req.ID, Err: "netdist: server overloaded", RetryAfterMillis: s.shedAfterMs.Load()}
			if err := codec.writeResponse(&resp); err != nil {
				return
			}
			continue
		}
		t0 := time.Now()
		s.tracer.Begin(&span, "netdist.serve", req.TraceID, req.ParentSpan)
		span.SetRequestID(req.ID)
		q := query.Query{Spec: req.Spec}
		resp := s.answer(&req, q, &walk)
		s.sm.requests.Inc()
		if resp.Err != "" {
			s.sm.errors.Inc()
			span.Event("rejected: " + resp.Err)
		} else {
			// Only a request a view accepted names a shape: a label minted
			// from an unvalidated Spec would let any peer grow the registry.
			shape = q.AppendShape(shape[:0])
			s.shapeCounter(shape).Inc()
			span.Reply(obs.DeviceReply{Device: s.deviceID, Request: req.ID, Buckets: resp.Buckets, Records: resp.Scanned})
		}
		s.sm.latency.ObserveSince(t0)
		span.End()
		s.inflightN.Add(-1)
		err := codec.writeResponse(&resp)
		resp.found.Release()
		if err != nil {
			return
		}
	}
}

// viewFor picks the view a query is answered from — the one place
// (AsDevice, Epoch) are interpreted:
//
//	AsDevice             Epoch            view
//	-1 or the server's   cur's            cur
//	-1 or the server's   next's, if any   next
//	ring predecessor     cur's            backup
//
// Backup partitions are not re-declustered live; replicated deployments
// sit out rescales (Prepare refuses them).
func (s *Server) viewFor(req *Request) (*view, error) {
	if req.AsDevice >= 0 && req.AsDevice != s.deviceID {
		if s.backup == nil || req.AsDevice != s.backup.dev {
			return nil, fmt.Errorf("netdist: device %d holds no backup for device %d", s.deviceID, req.AsDevice)
		}
		if req.Epoch != s.cur.epoch {
			return nil, fmt.Errorf("netdist: backup partition serves epoch %d only, not %d", s.cur.epoch, req.Epoch)
		}
		return s.backup, nil
	}
	if v := s.view(req.Epoch); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("netdist: epoch %d not served (current %d)", req.Epoch, s.serving().epoch)
}

// view returns the view serving epoch, nil when none does.
func (s *Server) view(epoch int) *view {
	switch {
	case epoch == s.cur.epoch && epoch != noEpoch:
		return s.cur
	case s.next != nil && epoch == s.next.epoch:
		return s.next
	}
	return nil
}

// serving returns the view of the epoch the server serves: cur, or on a
// rescale target, which serves none of its own, its prepared view.
func (s *Server) serving() *view {
	if s.cur.epoch == noEpoch && s.next != nil {
		return s.next
	}
	return s.cur
}

// answer runs one query — q is the request's Spec — against the view the
// request names, enumerating in the connection's walk. Holding the read
// lock across the scan keeps the view (and its partition) stable against
// a concurrent cutover.
func (s *Server) answer(req *Request, q query.Query, walk *query.Walk) Response {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	v, err := s.viewFor(req)
	if err != nil {
		return Response{ID: req.ID, Err: err.Error()}
	}
	if err := q.Validate(v.fs); err != nil {
		return Response{ID: req.ID, Err: err.Error()}
	}
	if len(req.Match) != v.fs.NumFields() {
		return Response{ID: req.ID, Err: fmt.Sprintf("netdist: %d value filters for %d fields", len(req.Match), v.fs.NumFields())}
	}
	if v == s.backup {
		s.sm.backup.Inc()
	}
	var ids [8]uint32
	want := v.part.Want(req.Match, ids[:0])
	resp := Response{ID: req.ID}
	*walk = v.im.Walk(*walk, q, v.dev)
	for coords := walk.Next(); coords != nil; coords = walk.Next() {
		resp.Buckets++
		resp.Scanned += v.part.Scan(uint32(v.fs.Linear(coords)), want, func(k uint32) { resp.found.Encode(v.part, k) })
	}
	return resp
}

// Deploy partitions the file, starts one Server per device on loopback
// listeners, and returns the addresses (index = device id) plus a stop
// function. It is the one-process path used by tests and the distributed
// example; production deployments construct Servers individually.
func Deploy(file *mkhash.File, alloc decluster.GroupAllocator) (addrs []string, stop func(), err error) {
	return deployServers(file, alloc, false)
}

// DeployReplicated is Deploy with chained declustering over TCP: each
// server also holds its ring predecessor's partition as backup.
func DeployReplicated(file *mkhash.File, alloc decluster.GroupAllocator) (addrs []string, stop func(), err error) {
	return deployServers(file, alloc, true)
}

func deployServers(file *mkhash.File, alloc decluster.GroupAllocator, replicated bool) (addrs []string, stop func(), err error) {
	spec, err := decluster.SpecOf(alloc)
	if err != nil {
		return nil, nil, err
	}
	parts, err := storage.Split(file, alloc)
	if err != nil {
		return nil, nil, err
	}
	servers := make([]*Server, 0, len(parts))
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for dev, part := range parts {
		var srv *Server
		if replicated {
			srv, err = NewReplicatedServer(dev, spec, part, parts[(dev-1+len(parts))%len(parts)])
		} else {
			srv, err = NewServer(dev, spec, part)
		}
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}
	return addrs, cleanup, nil
}
