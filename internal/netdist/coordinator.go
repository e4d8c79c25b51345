package netdist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"fxdist/internal/audit"
	"fxdist/internal/decluster"
	"fxdist/internal/engine"
	"fxdist/internal/mkhash"
	"fxdist/internal/obs"
	"fxdist/internal/plancache"
	"fxdist/internal/query"
	"fxdist/internal/resilience"
	"fxdist/internal/retry"
	"fxdist/internal/telemetry"
)

// ErrTimeout marks a per-device request that exceeded the coordinator's
// timeout; match with errors.Is.
var ErrTimeout = errors.New("request timed out")

// DeviceError carries the failing device's identity so a retrieval
// failure correlates with the per-device failover and error counters.
// Match with errors.As; Unwrap exposes the transport cause (including
// ErrTimeout).
type DeviceError struct {
	// Device is the device id the request addressed (the impersonated
	// device for failover requests, not the server that answered).
	Device int
	// Addr is the address of the server that was asked.
	Addr string
	// RequestID is the pipelined wire request id, 0 if the request was
	// never assigned one.
	RequestID uint64
	// Remote is true when the server answered but rejected the request
	// (a protocol error), false for transport failures and timeouts.
	Remote bool
	// TraceID is the retrieval's trace id (0 when untraced); join it
	// against /debug/traces to see the whole query's span tree.
	TraceID uint64
	// Err is the underlying cause.
	Err error
}

func (e *DeviceError) Error() string {
	if e.TraceID != 0 {
		return fmt.Sprintf("netdist: device %d (%s) request %d trace %d: %v", e.Device, e.Addr, e.RequestID, e.TraceID, e.Err)
	}
	return fmt.Sprintf("netdist: device %d (%s) request %d: %v", e.Device, e.Addr, e.RequestID, e.Err)
}

func (e *DeviceError) Unwrap() error { return e.Err }

// countingWriter counts wire bytes out. Writes are serialised by the
// connection's writeMu, so callers may read n around an Encode to
// attribute the delta to one request.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// timingReader wraps the connection under the read loop's decoder,
// stamping when the first byte of each armed message arrives and
// counting bytes read. Only the read-loop goroutine touches it. A
// message already buffered may decode without any underlying Read
// (armed stays true) — the read loop then falls back to the arm time.
type timingReader struct {
	r         io.Reader
	armed     bool
	armedAt   time.Time
	firstByte time.Time
	n         uint64
}

func (t *timingReader) arm() {
	t.armed = true
	t.armedAt = time.Now()
	t.n = 0
}

func (t *timingReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		if t.armed {
			t.firstByte = time.Now()
			t.armed = false
		}
		t.n += uint64(n)
	}
	return n, err
}

// wireDelivery is one demultiplexed response plus the read loop's
// timing evidence for it. release, non-nil when the response has records,
// returns the frame they alias to its pool (decodeResponse).
type wireDelivery struct {
	resp      Response
	firstByte time.Time
	decode    time.Duration
	bytes     uint64
	release   func()
}

// deviceConn is one persistent connection with pipelined request/response
// framing: many requests may be in flight concurrently, matched to
// waiters by request ID. A single reader goroutine demultiplexes
// responses; writers serialise on a mutex.
type deviceConn struct {
	conn net.Conn
	addr string

	writeMu sync.Mutex
	codec   *binCodec
	cw      *countingWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wireDelivery
	err     error // sticky transport error; set once the reader exits
	// idle holds delivery channels between requests: one whose delivery
	// was taken is empty and open, fit for the next.
	idle []chan wireDelivery
}

func newDeviceConn(conn net.Conn, addr string) *deviceConn {
	cw := &countingWriter{w: conn}
	tr := &timingReader{r: conn}
	dc := &deviceConn{
		conn:    conn,
		addr:    addr,
		cw:      cw,
		pending: make(map[uint64]chan wireDelivery),
	}
	dc.codec = &binCodec{w: cw, r: tr}
	go dc.readLoop(tr)
	return dc
}

// discard recycles a delivery nobody will consume: the frame its records
// alias and the record-header slab both go back to their pools.
func (d wireDelivery) discard() {
	if d.release != nil {
		d.release()
	}
	clientHits.Put(d.resp.Records)
}

// readLoop dispatches responses to their waiters until the connection
// dies, then fails every pending and future request.
func (dc *deviceConn) readLoop(tr *timingReader) {
	for {
		tr.arm()
		var resp Response
		release, err := dc.codec.readResponse(&resp)
		if err != nil {
			dc.mu.Lock()
			if dc.err == nil {
				dc.err = fmt.Errorf("connection lost: %w", err)
			}
			for id, ch := range dc.pending {
				close(ch)
				delete(dc.pending, id)
			}
			dc.mu.Unlock()
			return
		}
		d := wireDelivery{resp: resp, firstByte: tr.firstByte, bytes: tr.n, release: release}
		if tr.armed {
			// Fully buffered message: no Read happened, the bytes were
			// already here when we armed.
			d.firstByte = tr.armedAt
			d.bytes = 0
		}
		d.decode = time.Since(d.firstByte)
		dc.mu.Lock()
		ch, ok := dc.pending[resp.ID]
		if ok {
			delete(dc.pending, resp.ID)
		}
		dc.mu.Unlock()
		if ok {
			ch <- d
		} else {
			// The waiter gave up (cancel or timeout): recycle instead of
			// leaking the slabs to the garbage collector.
			d.discard()
		}
	}
}

// dead returns the sticky transport error once the reader has exited,
// nil while the connection is healthy (the health prober's redial
// trigger).
func (dc *deviceConn) dead() error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.err
}

// WireStages breaks one round trip into the coordinator-side wire
// stages: Dispatch (request encode + write; OutBytes on the wire),
// Wait (write done → first response byte), Decode (first byte → frame
// decoded; InBytes on the wire).
type WireStages struct {
	Dispatch time.Duration
	OutBytes uint64
	Wait     time.Duration
	Decode   time.Duration
	InBytes  uint64
}

// roundTrip sends req and waits for its response, returning the wire
// request id it assigned (0 when the connection was already dead), the
// round trip's wire-stage timings, and the response's release (nil when
// it carries no records; the caller folds it into the result's lease). The
// per-request timeout composes with the caller's context deadline —
// whichever expires first wins — and a coordinator-side expiry surfaces
// as ErrTimeout wrapping context.DeadlineExceeded, so both errors.Is
// checks hold. Cancelling ctx abandons the wait (the response, if it
// ever arrives, is recycled by the read loop).
func (dc *deviceConn) roundTrip(ctx context.Context, req Request, timeout time.Duration) (Response, uint64, WireStages, func(), error) {
	var ws WireStages
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout,
			fmt.Errorf("%w after %v: %w", ErrTimeout, timeout, context.DeadlineExceeded))
		defer cancel()
	}
	dc.mu.Lock()
	if dc.err != nil {
		err := dc.err
		dc.mu.Unlock()
		return Response{}, 0, ws, nil, err
	}
	dc.nextID++
	req.ID = dc.nextID
	var ch chan wireDelivery
	if n := len(dc.idle); n > 0 {
		ch, dc.idle = dc.idle[n-1], dc.idle[:n-1]
	} else {
		ch = make(chan wireDelivery, 1)
	}
	dc.pending[req.ID] = ch
	dc.mu.Unlock()

	dc.writeMu.Lock()
	t0 := time.Now()
	out0 := dc.cw.n
	err := dc.codec.writeRequest(&req)
	ws.OutBytes = dc.cw.n - out0
	dc.writeMu.Unlock()
	writeDone := time.Now()
	ws.Dispatch = writeDone.Sub(t0)
	if err != nil {
		dc.mu.Lock()
		delete(dc.pending, req.ID)
		dc.mu.Unlock()
		return Response{}, req.ID, ws, nil, err
	}

	select {
	case d, ok := <-ch:
		dc.mu.Lock()
		err := dc.err
		if ok {
			dc.idle = append(dc.idle, ch)
		}
		dc.mu.Unlock()
		if !ok {
			return Response{}, req.ID, ws, nil, err
		}
		if w := d.firstByte.Sub(writeDone); w > 0 {
			ws.Wait = w
		}
		ws.Decode = d.decode
		ws.InBytes = d.bytes
		return d.resp, req.ID, ws, d.release, nil
	case <-ctx.Done():
		dc.mu.Lock()
		delete(dc.pending, req.ID)
		dc.mu.Unlock()
		// The delivery may have been buffered just before we gave up;
		// drain it so its slabs recycle rather than leak to the GC. The
		// channel is not reused: the read loop may still hold it.
		select {
		case d, ok := <-ch:
			if ok {
				d.discard()
			}
		default:
		}
		// Cause distinguishes our per-request timeout (ErrTimeout chain)
		// from the caller's own deadline or cancellation.
		return Response{}, req.ID, ws, nil, context.Cause(ctx)
	}
}

// Coordinator fans partial match queries out to the device servers and
// merges their answers. It holds the file *schema* (for hashing query
// values) but no data. Concurrent Retrieve calls pipeline over the same
// device connections. Retrieval — single, batched, through the gate or
// inside a rescale window — runs on one engine executor whose failure
// handling is fixed at Dial (WithFailover, WithResilience).
type Coordinator struct {
	file     *mkhash.File
	dm       []coordDevMetrics
	timeout  time.Duration
	failover bool
	epoch    int
	spec     *decluster.Spec // WithSpec's, else nil until the servers agree on one at Dial
	eng      *engine.Executor
	in       *telemetry.Instruments

	// connMu guards conns so the health prober can replace a dead
	// connection while retrievals are in flight.
	connMu sync.RWMutex
	conns  []*deviceConn

	// Resilience (WithResilience / WithInjector).
	rcfg     *retry.Config
	ctrl     *retry.Controller
	injector *resilience.Injector

	// The background loops (StartHealthProbes, StartStatsPull): every
	// starts each at most once, Close stops them together.
	loopMu           sync.Mutex
	probing, pulling bool
	loopStop         chan struct{}
	loopWG           sync.WaitGroup

	// Metrics federation (PullStats / StartStatsPull): fed accumulates
	// per-server NodeStats snapshots into the /debug/cluster fleet view.
	fed *telemetry.Federator
}

// backend is the label of every coordinator's reporting: its audit,
// plan cache, retry controller and fleet view.
const backend = "netdist"

// DialOption configures Dial.
type DialOption func(*Coordinator)

// WithTimeout bounds each per-device request; zero (the default) waits
// indefinitely.
func WithTimeout(d time.Duration) DialOption {
	return func(c *Coordinator) { c.timeout = d }
}

// WithResilience runs the coordinator's retrievals under the adaptive
// retry layer: per-device circuit breakers, backoff budgets, hedged
// failover requests, and (when cfg.Partial) graceful degraded results.
func WithResilience(cfg retry.Config) DialOption {
	return func(c *Coordinator) { c.rcfg = &cfg }
}

// WithInjector applies a fault injector at the connection seam: every
// outgoing device request first passes the injector's schedule for that
// device (chaos testing without touching the servers).
func WithInjector(in *resilience.Injector) DialOption {
	return func(c *Coordinator) { c.injector = in }
}

// WithEpoch stamps every query this coordinator sends with the given
// declustering epoch (see Request.Epoch). Default 0 — the epoch every
// server starts at. The rescale's new-epoch coordinator dials with the
// next epoch so servers answer from the prepared view.
func WithEpoch(epoch int) DialOption {
	return func(c *Coordinator) { c.epoch = epoch }
}

// WithSpec hands the coordinator the allocator spec its servers decluster
// under. Without it the servers' own description (OpDescribe) is the
// spec; with it that description is checked against the one handed over,
// and a server that does not serve the coordinator's epoch yet is taken on
// trust — the rescale's new-epoch dial comes before Prepare.
func WithSpec(spec decluster.Spec) DialOption {
	return func(c *Coordinator) { c.spec = &spec }
}

// WithFailover puts the ring-successor reroute on every retrieval, for
// deployments whose servers hold their predecessor's backup partition
// (NewReplicatedServer): a transport failure on a device re-asks its
// successor to answer as that device, and under WithResilience hedges
// race the same backup. It tolerates any set of
// failures in which no two adjacent servers are both dead. Retrieval
// spans are then named "netdist.retrieve-failover". Without it a dead
// server fails the retrieval, naming the device.
func WithFailover() DialOption {
	return func(c *Coordinator) { c.failover = true }
}

// Dial connects to one server per device; addrs[i] must serve device i.
// The file provides the schema and hash functions used to lower value
// queries to bucket coordinates — it can be empty of records. The
// allocator is the one the servers describe: Dial fails unless server i
// says it is device i, all under one spec (WithSpec's, when given) whose
// M is len(addrs) and whose grid is the file's.
func Dial(file *mkhash.File, addrs []string, opts ...DialOption) (*Coordinator, error) {
	c := &Coordinator{file: file}
	for _, opt := range opts {
		opt(c)
	}
	// Every instrument is the coordinator's own: a rescale's new-epoch
	// coordinator audits its layout apart from the serving one's.
	c.in = telemetry.New(backend, audit.SLO{})
	c.in.Metrics = newCoordMetrics(c.in.Registry)
	c.fed = telemetry.NewFederator(backend)
	for i, addr := range addrs {
		dc, err := c.dialDevice(context.Background(), addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netdist: dial %s: %w", addr, err)
		}
		c.conns = append(c.conns, dc)
		c.dm = append(c.dm, newCoordDevMetrics(c.in.Registry, i))
	}
	alloc, err := c.allocator()
	if err != nil {
		c.Close()
		return nil, err
	}
	devices := make([]engine.Device, len(c.conns))
	for i := range devices {
		devices[i] = &remoteDevice{c: c, server: i, as: -1}
	}
	// Reroutes and hedge backups both impersonate a device against its
	// ring successor's backup partition, so only a failover deployment
	// gets them (a plain deployment's successor has no copy to answer
	// from).
	span := "netdist.retrieve"
	var reroute func(ctx context.Context, dev int, err error) engine.Device
	var backup func(dev int) engine.Device
	if c.failover {
		span, reroute, backup = "netdist.retrieve-failover", c.reroute, c.successorAs
	}
	if c.rcfg != nil {
		c.ctrl = retry.NewController(c.in.Registry, backend, *c.rcfg)
	}
	plans := plancache.New(c.in.Registry, backend)
	eng, err := engine.New(engine.Config{
		Schema:  file,
		Alloc:   alloc,
		Devices: devices,
		Instr:   c.in,
		Span:    span,
		Plans:   plans,
		Retry:   c.ctrl,
		Reroute: reroute,
		Backup:  backup,
	})
	if err != nil {
		plans.Close()
		c.Close()
		return nil, fmt.Errorf("netdist: %w", err)
	}
	c.eng = eng
	return c, nil
}

// allocator builds the spec the dialed servers decluster under, checked
// against the address list and the file's grid. Every server is asked:
// server i must say it is device i, and those that serve the
// coordinator's epoch must agree on one spec — the one handed over
// (WithSpec), when there is one. A server not serving the epoch yet is
// taken on trust only under a handed spec.
func (c *Coordinator) allocator() (decluster.GroupAllocator, error) {
	spec, from := c.spec, "WithSpec"
	for dev, dc := range c.conns {
		d, err := c.describe(dc)
		if err != nil {
			return nil, fmt.Errorf("netdist: describe device %d (%s): %w", dev, dc.addr, err)
		}
		switch {
		case d.Device != dev:
			return nil, fmt.Errorf("netdist: address %d (%s) is served by device %d, not device %d", dev, dc.addr, d.Device, dev)
		case d.Spec == nil && c.spec == nil:
			return nil, fmt.Errorf("netdist: device %d (%s) does not serve epoch %d", dev, dc.addr, c.epoch)
		case d.Spec == nil:
		case spec == nil:
			spec, from = d.Spec, fmt.Sprintf("device %d (%s)", dev, dc.addr)
		case !specEqual(*spec, *d.Spec):
			return nil, fmt.Errorf("netdist: device %d (%s) declusters under %+v, %s under %+v", dev, dc.addr, *d.Spec, from, *spec)
		}
	}
	if spec == nil {
		return nil, errors.New("netdist: no device addresses")
	}
	if spec.M != len(c.conns) {
		return nil, fmt.Errorf("netdist: %d addresses for an allocator over %d devices", len(c.conns), spec.M)
	}
	if sizes := c.file.Sizes(); !slices.Equal(sizes, spec.Sizes) {
		return nil, fmt.Errorf("netdist: file directory sizes %v, allocator declusters %v", sizes, spec.Sizes)
	}
	c.spec = spec
	alloc, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("netdist: %w", err)
	}
	return alloc, nil
}

// describe asks one server which device it is and under which spec it
// serves the coordinator's epoch: a plain round trip, before any
// retrieval, past the injector and the per-device counters.
func (c *Coordinator) describe(dc *deviceConn) (description, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout())
	defer cancel()
	var d description
	resp, _, _, _, err := dc.roundTrip(ctx, Request{Control: OpDescribe, Epoch: c.epoch, AsDevice: -1}, c.timeout)
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err == nil {
		err = json.Unmarshal(resp.StatsJSON, &d)
	}
	return d, err
}

// dialDevice connects to one device server within probeTimeout (or
// ctx's end) and completes the FXB handshake in that one dial: the magic
// goes out first and the server must ack it inside the handshake window
// (the request timeout, when shorter). Anything else — silence, a
// different magic, another version — fails the dial with ErrProtocol;
// there is no fallback protocol.
func (c *Coordinator) dialDevice(ctx context.Context, addr string) (*deviceConn, error) {
	d := net.Dialer{Timeout: c.probeTimeout()}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	window := handshakeWindow
	if c.timeout > 0 && c.timeout < window {
		window = c.timeout
	}
	if err := negotiateClient(conn, window); err != nil {
		conn.Close()
		return nil, err
	}
	return newDeviceConn(conn, addr), nil
}

// redial replaces device dev's dead connection dc with a fresh one. Of
// two callers replacing the same dc, the first swap wins: the loser
// closes its fresh connection and returns the winner's.
func (c *Coordinator) redial(ctx context.Context, dev int, dc *deviceConn) (*deviceConn, error) {
	fresh, err := c.dialDevice(ctx, dc.addr)
	if err != nil {
		return nil, err
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if cur := c.conns[dev]; cur != dc {
		fresh.conn.Close()
		return cur, nil
	}
	c.conns[dev] = fresh
	dc.conn.Close()
	return fresh, nil
}

// negotiateClient offers the wire magic and requires the server's ack
// before the deadline.
func negotiateClient(conn net.Conn, window time.Duration) error {
	if _, err := conn.Write(wireMagic[:]); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(window)) //nolint:errcheck // best effort
	var ack [len(wireMagic)]byte
	_, err := io.ReadFull(conn, ack[:])
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // best effort
	if err != nil {
		return fmt.Errorf("%w: no handshake ack within %v: %v", ErrProtocol, window, err)
	}
	return checkMagic(ack)
}

// conn returns device dev's current connection.
func (c *Coordinator) conn(dev int) *deviceConn {
	c.connMu.RLock()
	defer c.connMu.RUnlock()
	return c.conns[dev]
}

// StartHealthProbes pings every device server each interval: a dead
// connection is redialed, and the ping outcome drives the device's
// circuit breaker (a successful probe closes a half-open breaker, so a
// restarted server rejoins without waiting for live traffic to risk
// it). Idempotent; Close stops the prober.
func (c *Coordinator) StartHealthProbes(interval time.Duration) {
	c.every(&c.probing, interval, c.probeAll)
}

// every runs fn each interval on its own goroutine until Close, and
// reports whether it started one: a loop whose flag is already set is
// left as it is.
func (c *Coordinator) every(started *bool, interval time.Duration, fn func()) bool {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if *started {
		return false
	}
	*started = true
	if c.loopStop == nil {
		c.loopStop = make(chan struct{})
	}
	stop := c.loopStop
	c.loopWG.Add(1)
	go func() {
		defer c.loopWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return true
}

func (c *Coordinator) probeAll() {
	c.connMu.RLock()
	m := len(c.conns)
	c.connMu.RUnlock()
	for dev := 0; dev < m; dev++ {
		dc := c.conn(dev)
		if dc.dead() != nil {
			var err error
			if dc, err = c.redial(context.Background(), dev, dc); err != nil {
				// Still down; charge the breaker so it keeps cooling.
				c.ctrl.Probe(dev, func() error { return err })
				continue
			}
		}
		c.ctrl.Probe(dev, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout())
			defer cancel()
			_, _, _, _, err := dc.roundTrip(ctx, Request{Ping: true, AsDevice: -1}, c.timeout)
			return err
		})
	}
}

// Federator exposes the coordinator's fleet accumulator, the source of
// its cluster's /debug/cluster.
func (c *Coordinator) Federator() *telemetry.Federator { return c.fed }

// nodeName is the federator's key for device dev — fixed by the
// coordinator's own indexing so a failed pull and a successful one land
// on the same row.
func nodeName(dev int) string { return fmt.Sprintf("device-%d", dev) }

// coordinatorNode is the federator's key for the coordinator itself.
const coordinatorNode = "coordinator"

// PullStats fetches every device server's telemetry snapshot over the
// wire protocol and folds the results into the coordinator's federator.
// Alongside each node's own snapshot it hands the federator the
// coordinator's cumulative transport-error count for that device, so a
// node whose requests are failing at the coordinator seam (injected
// faults, flaky network) gets flagged even when its stats pull — a
// fresh, uninjected round trip — succeeds. The coordinator's own
// registry (its retrievals, audit, plan cache and resilience, which no
// server carries) is folded in once, as one more node. The first pull
// puts the fleet on the cluster's /debug/cluster. Returns the first pull
// error, if any.
func (c *Coordinator) PullStats(ctx context.Context) error {
	c.fed.ObserveNode(coordinatorNode, telemetry.LocalNodeStats(coordinatorNode, c.in.Registry), 0)
	c.connMu.RLock()
	m := len(c.conns)
	c.connMu.RUnlock()
	var firstErr error
	for dev := 0; dev < m; dev++ {
		dc := c.conn(dev)
		coordErrs := c.dm[dev].errors.Value()
		pctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
		resp, _, _, _, err := dc.roundTrip(pctx, Request{Stats: true, AsDevice: -1}, c.timeout)
		cancel()
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		if err == nil && len(resp.StatsJSON) == 0 {
			err = errors.New("netdist: server answered stats pull without a snapshot (pre-stats peer?)")
		}
		var st telemetry.NodeStats
		if err == nil {
			st, err = telemetry.DecodeNodeStats(resp.StatsJSON)
		}
		if err != nil {
			c.fed.ObserveFailure(nodeName(dev), err, coordErrs)
			if firstErr == nil {
				firstErr = fmt.Errorf("netdist: stats pull device %d (%s): %w", dev, dc.addr, err)
			}
			continue
		}
		c.fed.ObserveNode(nodeName(dev), st, coordErrs)
	}
	return firstErr
}

// StartStatsPull pulls every device's stats each interval, keeping the
// /debug/cluster fleet view fresh. Idempotent; Close stops the loop. An
// immediate first pull runs synchronously so the fleet view is populated
// as soon as this returns.
func (c *Coordinator) StartStatsPull(interval time.Duration) {
	pull := func() { c.PullStats(context.Background()) } //nolint:errcheck // failures land in the federator
	if c.every(&c.pulling, interval, pull) {
		pull()
	}
}

// probeTimeout bounds one health ping even when no request timeout is
// configured.
func (c *Coordinator) probeTimeout() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return 2 * time.Second
}

// remoteDevice adapts one device server connection to the engine's Device
// contract: the bucket query travels as a binary Request frame and the
// server does its own inverse mapping and value re-check. as >= 0
// impersonates a dead device against the server holding its backup
// partition (failover).
type remoteDevice struct {
	c      *Coordinator
	server int
	as     int
}

// Owner declares whose buckets the device answers for: its server's own,
// or those of the device it impersonates.
func (d *remoteDevice) Owner() int {
	if d.as >= 0 {
		return d.as
	}
	return d.server
}

func (d *remoteDevice) Scan(ctx context.Context, q query.Query, pm mkhash.PartialMatch) (engine.Answer, error) {
	req := NewRequest(q.Spec, pm)
	req.AsDevice = d.as
	req.Epoch = d.c.epoch
	if span := engine.SpanFromContext(ctx); span != nil {
		req.TraceID, req.ParentSpan = span.Trace(), span.SpanID()
	}
	// The shape attributes the round trip in the cost profile; it rides
	// the retrieval's plan, computed once per shape, not per device.
	shape := ""
	if p := engine.PlanFromContext(ctx); p != nil {
		shape = p.Shape
	}
	resp, release, err := d.c.ask(ctx, d.server, req, shape)
	if err != nil {
		return engine.Answer{}, err
	}
	return engine.Answer{Buckets: resp.Buckets, Records: resp.Scanned, Hits: resp.Records, Release: release}, nil
}

// successorAs is device dev impersonated against its ring successor's
// server, which answers from the backup partition it holds.
func (c *Coordinator) successorAs(dev int) engine.Device {
	return &remoteDevice{c: c, server: (dev + 1) % len(c.conns), as: dev}
}

// reroute is the executor's Reroute under WithFailover: a transport
// failure on a device re-asks its ring successor to answer from the
// backup copy. Remote rejections (the server answered and said no)
// are not retried — the backup would reject the same request.
func (c *Coordinator) reroute(ctx context.Context, dev int, err error) engine.Device {
	var derr *DeviceError
	if errors.As(err, &derr) && derr.Remote {
		return nil
	}
	c.dm[dev].failovers.Inc()
	engine.SpanFromContext(ctx).Event(
		fmt.Sprintf("failover: re-asking ring successor %d for device %d", (dev+1)%len(c.conns), dev))
	return c.successorAs(dev)
}

// Close stops the health prober and the stats puller, drops all device
// connections, and releases the plan cache.
func (c *Coordinator) Close() {
	c.loopMu.Lock()
	if c.loopStop != nil {
		close(c.loopStop)
		c.loopStop, c.probing, c.pulling = nil, false, false
	}
	c.loopMu.Unlock()
	c.loopWG.Wait()
	if c.eng != nil {
		c.eng.Plans().Close()
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	for _, dc := range c.conns {
		if dc != nil {
			dc.conn.Close()
		}
	}
}

// PlanCache returns the coordinator's per-shape plan cache.
func (c *Coordinator) PlanCache() *plancache.Cache { return c.eng.Plans() }

// M returns the device count.
func (c *Coordinator) M() int { return len(c.conns) }

// Instruments returns the coordinator's reporting bundle, the store
// behind its cluster's per-query /debug views.
func (c *Coordinator) Instruments() *telemetry.Instruments { return c.in }

// Resilience snapshots the coordinator's retry controller and fault
// injector (/debug/resilience).
func (c *Coordinator) Resilience() resilience.Snapshot {
	return resilience.SnapshotOf(c.ctrl, c.injector)
}

// Spec returns the allocator spec the coordinator's servers decluster
// under: the one they agreed on at Dial (WithSpec's, when handed over).
func (c *Coordinator) Spec() decluster.Spec { return *c.spec }

// Epoch returns the declustering epoch stamped on this coordinator's
// queries (see WithEpoch).
func (c *Coordinator) Epoch() int { return c.epoch }

// Addrs returns the device server addresses in device order — what the
// rescale needs to dial the new-epoch coordinator over a superset (or
// prefix) of the old one's servers.
func (c *Coordinator) Addrs() []string {
	c.connMu.RLock()
	defer c.connMu.RUnlock()
	addrs := make([]string, len(c.conns))
	for i, dc := range c.conns {
		addrs[i] = dc.addr
	}
	return addrs
}

// ask runs one instrumented round trip against device dev's server,
// classifying errors into the per-device counters and wrapping failures
// with the device id, server address and wire request id. The retrieval
// span travels in ctx (see engine.SpanFromContext); shape, when
// non-empty, attributes the round trip's wire stages (dispatch → first
// byte → decode) to the query shape in the netdist cost profile. The
// returned release (nil for a response without records) owns the frame
// the records alias; the caller folds it into the result's lease.
func (c *Coordinator) ask(ctx context.Context, dev int, req Request, shape string) (Response, func(), error) {
	dc := c.conn(dev)
	span := engine.SpanFromContext(ctx)
	dm := &c.dm[dev]
	if c.injector != nil {
		if ierr := c.injector.Before(ctx, dev); ierr != nil {
			// Injected faults look like transport failures so the whole
			// resilience stack (retry, breaker, failover) exercises for
			// real.
			dm.errors.Inc()
			derr := &DeviceError{Device: req.targetDevice(dev), Addr: dc.addr, TraceID: span.Trace(), Err: ierr}
			span.Event(derr.Error())
			return Response{}, nil, derr
		}
	}
	dm.inflight.Inc()
	t0 := time.Now()
	resp, id, ws, release, err := dc.roundTrip(ctx, req, c.timeout)
	if err != nil && id == 0 {
		// The connection died before this request was written (a server
		// restart, a reset): redial it and send the request for the first
		// time. A dial that fails is this request's error.
		var fresh *deviceConn
		if fresh, err = c.redial(ctx, dev, dc); err == nil {
			dc = fresh
			resp, id, ws, release, err = dc.roundTrip(ctx, req, c.timeout)
		}
	}
	dm.latency.ObserveSince(t0)
	dm.inflight.Dec()
	if shape != "" && err == nil {
		c.in.ObserveSamples(shape, []obs.StageSample{
			{Stage: obs.StageNetDispatch, Wall: ws.Dispatch, Bytes: ws.OutBytes},
			{Stage: obs.StageNetWait, Wall: ws.Wait},
			{Stage: obs.StageNetDecode, Wall: ws.Decode, Bytes: ws.InBytes},
		})
	}
	if err != nil {
		dm.errors.Inc()
		if errors.Is(err, ErrTimeout) {
			dm.timeouts.Inc()
		}
		derr := &DeviceError{Device: req.targetDevice(dev), Addr: dc.addr, RequestID: id, TraceID: span.Trace(), Err: err}
		span.Event(derr.Error())
		return Response{}, nil, derr
	}
	if resp.Err != "" {
		// Rejections carry no records, but recycle defensively before
		// dropping the response.
		if release != nil {
			release()
		}
		clientHits.Put(resp.Records)
		dm.errors.Inc()
		cause := error(errors.New(resp.Err))
		if resp.RetryAfterMillis > 0 {
			// The server is shedding load: carry its Retry-After hint so
			// the retry budget backs off at least that long before
			// re-asking the same server.
			cause = &retry.Cooldown{After: time.Duration(resp.RetryAfterMillis) * time.Millisecond, Err: cause}
		}
		derr := &DeviceError{Device: req.targetDevice(dev), Addr: dc.addr, RequestID: id, TraceID: span.Trace(), Remote: true, Err: cause}
		span.Event(derr.Error())
		return Response{}, nil, derr
	}
	span.SetRequestID(id)
	span.Reply(obs.DeviceReply{Device: req.targetDevice(dev), Addr: dc.addr, Request: id,
		Buckets: resp.Buckets, Records: resp.Scanned, Took: time.Since(t0)})
	return resp, release, nil
}

// targetDevice reports which device's partition req addresses when sent
// to server dev (failover requests impersonate the dead device).
func (r Request) targetDevice(server int) int {
	if r.AsDevice >= 0 {
		return r.AsDevice
	}
	return server
}

// Retrieve is RetrieveContext with context.Background().
func (c *Coordinator) Retrieve(pm mkhash.PartialMatch) (engine.Result, error) {
	return c.RetrieveContext(context.Background(), pm)
}

// RetrieveContext lowers the value-level query, sends it in parallel to
// every device that owns one of its qualified buckets, and merges the
// responses. Any device error fails the whole retrieval (partial answers
// would silently drop matches) and the error reports every failing
// device — unless the executor reroutes it (WithFailover) or, under
// WithResilience(Partial: true), degrades it: then the surviving
// devices' merged records come back alongside the *engine.PartialError
// manifest (match with errors.As).
func (c *Coordinator) RetrieveContext(ctx context.Context, pm mkhash.PartialMatch) (engine.Result, error) {
	return c.eng.Retrieve(ctx, pm)
}

// RetrieveBatch answers a batch of queries, pipelining all of them over
// the device connections at once; see engine.Executor.RetrieveBatch.
func (c *Coordinator) RetrieveBatch(ctx context.Context, pms []mkhash.PartialMatch) ([]engine.Result, error) {
	return c.eng.RetrieveBatch(ctx, pms)
}
