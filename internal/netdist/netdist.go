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
	"fxdist/internal/engine"
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/query"
	"fxdist/internal/storage"
	"fxdist/internal/telemetry"
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
	// Ping marks a health probe: the server echoes an empty success
	// immediately, bypassing load shedding, without running a query. The
	// coordinator's health prober uses it to close circuit breakers once
	// a server comes back.
	Ping bool
	// Stats asks the server for its telemetry snapshot instead of a
	// query: the response carries the node's metrics registry serialised
	// as StatsJSON. Like Ping it bypasses load shedding — a drowning
	// node's stats are exactly the ones the fleet view needs. Old servers
	// that predate the field answer it as a malformed query (harmless:
	// the coordinator's stats pull just records the failure).
	Stats bool

	// Epoch selects which declustering epoch a query runs against during
	// an elastic rescale: the server's current view, or — between Prepare
	// and Cutover — the prepared next view at epoch current+1. Outside a
	// rescale every peer is at epoch 0 and the field rides as zero. On
	// the binary wire the rescale extension (Epoch through Payload) is a
	// trailing-optional section gated by a flags bit, so pre-rescale
	// peers interoperate; a rescale itself requires every server at this
	// version (Prepare fails cleanly on older ones).
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
	// OpPrepare hands the server the next epoch's allocator spec: it
	// builds the view (file system + inverse mapper) and starts serving
	// queries at epoch current+1 alongside the current epoch.
	OpPrepare = 1 + iota
	// OpFetch returns one bucket's records from the current partition.
	OpFetch
	// OpInstall stores one bucket's records into the (prepared or
	// already-current) next-epoch partition. Idempotent: re-installing
	// a bucket overwrites it with identical content.
	OpInstall
	// OpCutover promotes the prepared view to current, bumps the epoch,
	// and prunes buckets the server no longer owns. A no-op on servers
	// with nothing prepared (fresh rescale targets already at the new
	// epoch), so the driver can broadcast it idempotently.
	OpCutover
	// OpAbort drops the prepared view and deletes every bucket installed
	// during the rescale, returning the server to its pre-rescale state.
	OpAbort
	// OpDescribe answers which device the server is and under which
	// allocator spec it serves the request's epoch (a JSON description in
	// the response's trailing blob). Dial asks every server: a query goes
	// only to the devices its plan says own a qualified bucket, so
	// "addrs[i] serves device i under one allocator" is the correctness of
	// every answer and is checked, not assumed.
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
	// Records are the matching records from this device's partition.
	Records []mkhash.Record
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
	// (telemetry.NodeStats) as an opaque JSON blob, so the frame layout
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
	// cur is the serving view at epoch; next, when non-nil, is the
	// prepared next-epoch view of an in-flight rescale over the same
	// partition (see Request.Epoch and the Op* control operations);
	// backup, when non-nil, is the ring predecessor's partition under the
	// serving allocator (NewReplicatedServer). viewFor picks among them.
	cur, next, backup *view
	epoch             int
	// installed tracks buckets written during the prepared rescale so
	// Abort can delete exactly them.
	installed map[int]struct{}

	sm     serverMetrics
	reg    *obs.Registry
	tracer *obs.Tracer
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
// device dev under the allocator spec describes. A server holds up to
// three — serving, prepared next epoch, ring predecessor's backup.
type view struct {
	dev  int
	spec decluster.Spec
	fs   decluster.FileSystem
	im   *query.InverseMapper
	part storage.Partition
}

// newView builds the view of device dev's partition under spec.
func newView(dev int, spec decluster.Spec, part storage.Partition) (*view, error) {
	alloc, err := spec.Build()
	if err != nil {
		return nil, err
	}
	fs := alloc.FileSystem()
	if dev < 0 || dev >= fs.M {
		return nil, fmt.Errorf("device id %d outside [0,%d)", dev, fs.M)
	}
	return &view{dev: dev, spec: spec, fs: fs, im: query.NewInverseMapper(alloc), part: part}, nil
}

// admit checks buckets handed in from outside (storage.Partition.Admit)
// against the view's allocator and device.
func (v *view) admit(part storage.Partition) error {
	return part.Admit(v.im.Allocator(), v.dev)
}

// NewServer builds a device server from a serialized allocator spec and
// the device's bucket partition (keyed by FileSystem.Linear index). The
// server verifies that every bucket it is handed actually belongs to this
// device under the allocator and holds records of the file's arity — a
// partitioning bug fails fast here rather than as silently wrong query
// results.
func NewServer(deviceID int, spec decluster.Spec, buckets storage.Partition) (*Server, error) {
	cur, err := newView(deviceID, spec, buckets)
	if err == nil {
		err = cur.admit(buckets)
	}
	if err != nil {
		return nil, fmt.Errorf("netdist: %w", err)
	}
	s := &Server{
		deviceID:    deviceID,
		cur:         cur,
		shapeCounts: make(map[string]*obs.Counter),
		reg:         telemetry.NewRegistry(),
		tracer:      obs.DefaultTracer(),
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

// DebugHandler serves the server's observability: its /metrics, the
// trace ring, /debug/pprof/ and the process's /debug/mempool.
func (s *Server) DebugHandler() http.Handler {
	return obs.HandlerFor(s.tracer, mempool.Endpoint(), obs.MetricsEndpoint(s.Metrics))
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
	st := telemetry.LocalNodeStats(nodeName(s.deviceID), s.reg)
	b, err := telemetry.EncodeNodeStats(st)
	if err != nil {
		return Response{ID: id, Err: fmt.Sprintf("netdist: encode stats: %v", err)}
	}
	return Response{ID: id, StatsJSON: b}
}

// SetShedding enables load shedding: beyond maxInflight concurrent
// requests the server rejects new ones with a Retry-After hint of
// retryAfter instead of queueing them behind slow scans. maxInflight
// <= 0 disables shedding. Pings are never shed.
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

// serverHits is the pool storage.Partition.Scan draws hit frames from;
// each response's frame goes back once the response is on the wire.
var serverHits = engine.HitsPool()

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
		if req.Ping {
			// Health probes answer before shedding and without a scan: a
			// drowning server is still alive, and the prober must see that.
			if err := codec.writeResponse(&Response{ID: req.ID}); err != nil {
				return
			}
			continue
		}
		if req.Stats {
			// Stats pulls also bypass shedding: an overloaded node's
			// telemetry is exactly what the fleet view needs to show.
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
			serverHits.Put(resp.Records)
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
		serverHits.Put(resp.Records)
		if err != nil {
			return
		}
	}
}

// viewFor picks the view a query is answered from — the one place
// (AsDevice, Epoch) are interpreted:
//
//	AsDevice             Epoch                   view
//	-1 or the server's   current                 cur
//	-1 or the server's   current+1, if prepared  next
//	ring predecessor     current                 backup
//
// Backup partitions are not re-declustered live; replicated deployments
// sit out rescales (Prepare refuses them).
func (s *Server) viewFor(req *Request) (*view, error) {
	if req.AsDevice >= 0 && req.AsDevice != s.deviceID {
		if s.backup == nil || req.AsDevice != s.backup.dev {
			return nil, fmt.Errorf("netdist: device %d holds no backup for device %d", s.deviceID, req.AsDevice)
		}
		if req.Epoch != s.epoch {
			return nil, fmt.Errorf("netdist: backup partition serves epoch %d only, not %d", s.epoch, req.Epoch)
		}
		return s.backup, nil
	}
	if req.Epoch == s.epoch {
		return s.cur, nil
	}
	if s.next == nil || req.Epoch != s.epoch+1 {
		return nil, fmt.Errorf("netdist: epoch %d not served (current %d)", req.Epoch, s.epoch)
	}
	return s.next, nil
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
	var ans engine.Answer
	*walk = v.im.Walk(*walk, q, v.dev)
	for coords := walk.Next(); coords != nil; coords = walk.Next() {
		v.part.Scan(v.fs.Linear(coords), req.Match, &ans)
	}
	return Response{ID: req.ID, Records: ans.Hits, Buckets: ans.Buckets, Scanned: ans.Records}
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
