package fxdist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fxdist/internal/engine"
	"fxdist/internal/netdist"
	"fxdist/internal/rebalance"
)

// Live elastic rescaling: grow a distributed cluster from M to 2M
// devices (or shrink 2M to M) with zero downtime. The rescale runs as
// an epoch transition driven by rebalance.Driver:
//
//  1. copying — every surviving server is prepared with the new epoch's
//     allocator spec and the moving buckets stream old-owner →
//     new-owner over the binary wire protocol. Queries keep answering
//     from the old epoch, untouched.
//  2. dual-read — with every bucket copied, retrievals race both epochs
//     (engine.DualReader): the first complete answer wins, the loser is
//     cross-checked in the background. The new epoch's coordinator
//     audits into its own bundle, and cutover waits until its per-shape
//     deviation is within the Doerr bound.
//  3. cutover — old-epoch reads drain, every server promotes its
//     prepared view, and the cluster handle swaps to the new
//     coordinator, whose bundle (seeded with the cluster's SLOs) is the
//     cluster's from then on. The old epoch is only released here; Abort
//     at any earlier point rolls every server back byte-for-byte.
//
// Progress journals through WithRescale / RescaleConfig.Journal, so a
// coordinator killed mid-migration resumes instead of restarting.

// RescaleConfig configures Cluster.Rescale.
type RescaleConfig struct {
	// Addrs is the post-rescale address list: Addrs[i] must serve device
	// i under the new M. Growing, the first M entries are the current
	// servers and the rest must already run empty rescale-target servers
	// (NewRescaleTargetServer, or `fxnode serve -rescale-target`);
	// shrinking, Addrs is a prefix of the current list.
	Addrs []string
	// NewM is the post-rescale device count; must equal len(Addrs) and
	// be exactly double or half the current M.
	NewM int
	// Allocator is the cluster's current allocator — the one its device
	// servers were deployed with (coordinators dial by address and don't
	// hold it). The new epoch reuses its method and per-field settings
	// with M doubled or halved.
	Allocator GroupAllocator
	// Journal overrides the cluster's WithRescale journal path.
	Journal string
	// Concurrency bounds in-flight bucket copies (default 4).
	Concurrency int
	// GuardMinQueries is how many audited new-epoch queries cutover
	// requires before trusting the optimality report (default 4). Dual
	// reads feed the auditor; an idle cluster can pump traffic with
	// Rescale.Verify.
	GuardMinQueries uint64
	// DisableGuard cuts over as soon as copying and the dual-read drain
	// finish, without waiting on the optimality auditor.
	DisableGuard bool
	// DialOptions are extra options for dialing the new epoch's
	// coordinator — e.g. a request timeout, or a fault injector so chaos
	// schedules also exercise the migration stream and dual reads.
	DialOptions []DialOption
}

// Rescale phases beyond the driver's journalled ones are routing
// states; see phase constants below.
const (
	rescRouteOld  int32 = iota // copying: old epoch answers alone
	rescRouteDual              // dual-read window
	rescRouteNew               // drained: new epoch answers alone
)

// RescaleStatus combines the migration driver's progress with the
// dual-read cross-check counters.
type RescaleStatus struct {
	rebalance.DriverStatus
	DualReads DualReadStats `json:"dual_reads"`
}

// DualReadStats re-exports engine.DualReadStats.
type DualReadStats = engine.DualReadStats

// Rescale is a live rescale in flight (or finished); obtain one from
// Cluster.Rescale.
type Rescale struct {
	c        *Cluster
	driver   *rebalance.Driver
	dual     *engine.DualReader
	newCoord *Coordinator

	route   atomic.Int32
	oldGate sync.RWMutex // held (R) by dual retrievals, (W) by the drain

	done chan struct{}
	err  error

	finalizeOnce sync.Once
	closeOnce    sync.Once
}

// Rescale starts a live rescale to cfg.NewM devices and returns a
// handle immediately; the migration runs in the background. Watch it
// with Status/Wait (or the cluster's /debug/rescale), steer it with
// Pause/Resume/Abort, and pump self-check traffic with Verify. Only the
// distributed backend rescales, one rescale at a time.
func (c *Cluster) Rescale(ctx context.Context, cfg RescaleConfig) (*Rescale, error) {
	if c.kind != KindNetdist {
		return nil, fmt.Errorf("fxdist: only the distributed backend rescales (this cluster is %q)", c.kind)
	}
	old := c.Coordinator()
	oldM := old.M()
	if cfg.NewM != 2*oldM && oldM != 2*cfg.NewM {
		return nil, fmt.Errorf("fxdist: rescale %d -> %d devices: only doubling or halving is supported", oldM, cfg.NewM)
	}
	if len(cfg.Addrs) != cfg.NewM {
		return nil, fmt.Errorf("fxdist: rescale needs %d addresses, got %d", cfg.NewM, len(cfg.Addrs))
	}
	if cfg.GuardMinQueries == 0 {
		cfg.GuardMinQueries = 4
	}
	journal := cfg.Journal
	if journal == "" {
		journal = c.rescaleJournal
	}

	if cfg.Allocator == nil {
		return nil, errors.New("fxdist: RescaleConfig.Allocator must be the cluster's current allocator")
	}
	oldSpec, err := DescribeAllocator(cfg.Allocator)
	if err != nil {
		return nil, err
	}
	if oldSpec.M != oldM {
		return nil, fmt.Errorf("fxdist: allocator declusters over %d devices, cluster has %d", oldSpec.M, oldM)
	}
	newSpec, err := oldSpec.Rescaled(cfg.NewM)
	if err != nil {
		return nil, err
	}

	// Dial the new epoch's coordinator over the post-rescale address
	// list. It audits into its own bundle, so the cutover guard reads the
	// new layout's optimality in isolation; the bundle takes the
	// cluster's objectives now and becomes the cluster's at cutover. The
	// dial comes before Prepare, when the old servers cannot describe the
	// new epoch yet, so it is handed the spec they are about to get (last
	// of the cluster's own options: Open may have handed the old one).
	dialOpts := append(append([]DialOption{netdist.WithEpoch(old.Epoch() + 1)}, c.dialOpts...), netdist.WithSpec(newSpec))
	dialOpts = append(dialOpts, cfg.DialOptions...)
	newCoord, err := netdist.Dial(c.file, cfg.Addrs, dialOpts...)
	if err != nil {
		return nil, fmt.Errorf("fxdist: dial new-epoch coordinator: %w", err)
	}
	r := &Rescale{c: c, newCoord: newCoord, done: make(chan struct{})}
	r.dual = &engine.DualReader{
		Old: old.RetrieveContext,
		New: newCoord.RetrieveContext,
	}
	// Published before its bundle adopts the objectives, under the
	// setters' lock, the rescale loses none set meanwhile (eachBundle).
	if !c.resc.CompareAndSwap(nil, r) {
		newCoord.Close()
		return nil, errors.New("fxdist: a rescale is already in flight")
	}
	next := newCoord.Instruments()
	c.sloMu.Lock()
	next.AdoptSLOs(old.Instruments())
	c.sloMu.Unlock()

	// The transport must span the union of the two device sets: the
	// larger coordinator's conn table does.
	var transport rebalance.Transport = newCoord
	if oldM > cfg.NewM {
		transport = old
	}
	dcfg := rebalance.DriverConfig{
		OldSpec:     oldSpec,
		NewSpec:     newSpec,
		Transport:   transport,
		JournalPath: journal,
		Concurrency: cfg.Concurrency,
		EnterDualRead: func(context.Context) error {
			r.route.Store(rescRouteDual)
			return nil
		},
		BeforeRelease:  r.drainOldEpoch,
		BeforeRollback: r.leaveNewEpoch,
	}
	if !cfg.DisableGuard {
		dcfg.Guard = rebalance.AuditGuard(next.AuditReport, cfg.NewM, cfg.GuardMinQueries)
	}
	driver, err := rebalance.NewDriver(dcfg)
	if err != nil {
		c.resc.CompareAndSwap(r, nil)
		r.closeNew() // a Close racing the publish may have closed it too
		return nil, err
	}
	r.driver = driver
	c.driver.Store(driver)

	go func() {
		err := driver.Run(ctx)
		r.finish(err)
	}()
	return r, nil
}

// intercepting reports whether the rescale currently routes retrievals
// away from the plain old-epoch path.
func (r *Rescale) intercepting() bool { return r.route.Load() != rescRouteOld }

// retrieve answers one retrieval according to the window's routing
// state. handled is false while the old epoch still answers alone.
func (r *Rescale) retrieve(ctx context.Context, pm PartialMatch) (RetrieveResult, error, bool) {
	switch r.route.Load() {
	case rescRouteDual:
		// Hold the gate while the dual read may touch the old epoch; the
		// drain (and a rollback) takes the write side after flipping the
		// route, so a recheck under the lock decides authoritatively.
		r.oldGate.RLock()
		defer r.oldGate.RUnlock()
		switch r.route.Load() {
		case rescRouteNew:
			// The drain won the race: the old epoch is released.
			res, err := r.newCoord.RetrieveContext(ctx, pm)
			return res, err, true
		case rescRouteOld:
			// A rollback won the race: the new epoch's prepared views
			// are about to drop, so fall back to the plain old-epoch
			// path (handled=false).
			return RetrieveResult{}, nil, false
		}
		res, err := r.dual.Retrieve(ctx, pm)
		return res, err, true
	case rescRouteNew:
		res, err := r.newCoord.RetrieveContext(ctx, pm)
		return res, err, true
	default:
		return RetrieveResult{}, nil, false
	}
}

// drainOldEpoch is the driver's BeforeRelease hook: stop routing to the
// old epoch, wait out in-flight dual reads and their background
// cross-checks, and veto cutover if any answer diverged.
func (r *Rescale) drainOldEpoch(context.Context) error {
	r.route.Store(rescRouteNew)
	r.oldGate.Lock() // barrier: every in-flight dual read has returned
	r.oldGate.Unlock()
	r.dual.Drain() // background cross-checks too
	if st := r.dual.Stats(); st.Mismatches > 0 {
		return fmt.Errorf("fxdist: %d dual-read mismatches between epochs; migration is inconsistent", st.Mismatches)
	}
	return nil
}

// leaveNewEpoch routes queries back to the old epoch alone and waits
// out any retrieval still touching the new one — called before a
// rollback drops the servers' prepared views.
func (r *Rescale) leaveNewEpoch() {
	r.route.Store(rescRouteOld)
	r.oldGate.Lock() // barrier: in-flight dual reads have returned
	r.oldGate.Unlock()
	r.dual.Drain()
}

// finish records the driver's outcome and, on success, swaps the
// cluster handle onto the new coordinator and releases the old one.
func (r *Rescale) finish(err error) {
	r.finalizeOnce.Do(func() {
		if errors.Is(err, rebalance.ErrPartialCutover) {
			// Past the point of no return with stragglers: keep answering
			// from the new epoch (most servers promoted; the old epoch no
			// longer exists on them) and surface the error. Recovery is
			// re-running the rescale against the same journal, which
			// replays the idempotent cutover broadcast.
			r.err = err
			close(r.done)
			return
		}
		if err != nil {
			// Rolled back: the old epoch keeps answering alone
			// (BeforeRollback already rerouted and drained).
			r.err = err
			r.c.resc.CompareAndSwap(r, nil)
			r.closeNew()
			close(r.done)
			return
		}
		r.c.coordMu.Lock()
		old := r.c.be.(*Coordinator)
		r.c.be = r.newCoord
		r.c.coordMu.Unlock()
		r.c.resc.CompareAndSwap(r, nil)
		old.Close()
		close(r.done)
	})
}

// closeNew releases the new-epoch coordinator if it never took over.
func (r *Rescale) closeNew() {
	r.closeOnce.Do(func() { r.newCoord.Close() })
}

// Status snapshots the migration and the dual-read counters.
func (r *Rescale) Status() RescaleStatus {
	return RescaleStatus{DriverStatus: r.driver.Status(), DualReads: r.dual.Stats()}
}

// Pause stops issuing new bucket copies and holds the cutover guard;
// Resume lifts it. Queries are unaffected either way.
func (r *Rescale) Pause()  { r.driver.Pause() }
func (r *Rescale) Resume() { r.driver.Resume() }

// Abort cancels the rescale and rolls every server back to the old
// epoch; Wait then returns rebalance.ErrAborted.
func (r *Rescale) Abort() { r.driver.Abort() }

// Wait blocks until the rescale completes (the cluster handle then
// answers from the new epoch) or fails after rollback.
func (r *Rescale) Wait() error {
	<-r.done
	return r.err
}

// Done reports completion without blocking.
func (r *Rescale) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Verify pumps self-check queries through the window's current routing
// — during dual-read each one races both epochs, is cross-checked, and
// feeds the cutover guard's audit floor. It returns the first query
// error.
func (r *Rescale) Verify(ctx context.Context, pms []PartialMatch) error {
	for _, pm := range pms {
		if _, err := r.c.RetrieveContext(ctx, pm); err != nil {
			return err
		}
	}
	return nil
}

// ErrRescaleAborted is returned by Rescale.Wait after an abort.
var ErrRescaleAborted = rebalance.ErrAborted

// RescalePlanOf previews the data movement of rescaling alloc's layout
// to newM devices without touching any server: the moving buckets,
// per-device in/out traffic, and whether the new owner is derivable
// from the old via the T_M low-bit identity.
func RescalePlanOf(alloc GroupAllocator, newM int) (rebalance.RescalePlan, error) {
	spec, err := DescribeAllocator(alloc)
	if err != nil {
		return rebalance.RescalePlan{}, err
	}
	nspec, err := spec.Rescaled(newM)
	if err != nil {
		return rebalance.RescalePlan{}, err
	}
	nalloc, err := nspec.Build()
	if err != nil {
		return rebalance.RescalePlan{}, err
	}
	return rebalance.PlanRescale(alloc, nalloc)
}

// NewRescaleTargetServer builds an empty device server for a device
// joining the cluster in a grow (device IDs M..2M-1 under the new
// spec). It starts at the given epoch — the one the growing cluster is
// rescaling into (current epoch + 1, normally 1) — so the migration can
// install buckets and the new coordinator can query it immediately.
func NewRescaleTargetServer(deviceID int, spec AllocatorSpec, epoch int) (*DeviceServer, error) {
	srv, err := netdist.NewServer(deviceID, spec, map[int][]Record{})
	if err != nil {
		return nil, err
	}
	srv.SetEpoch(epoch)
	return srv, nil
}
