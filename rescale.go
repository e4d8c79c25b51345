package fxdist

import (
	"context"
	"errors"
	"fmt"

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
//  2. verified — every old device digests the records it owns at the
//     old epoch, every new device those it owns at the new one, and the
//     totals must be equal (a mismatch rolls back). Only then does the
//     cluster swap its handle to the new epoch's coordinator: each read
//     goes to one epoch, and the new one's audits feed the cutover
//     guard, which waits until its per-shape deviation is within the
//     Doerr bound. The new coordinator's bundle (seeded with the
//     cluster's SLOs) is the cluster's from the swap on.
//  3. cutover — every server promotes its prepared view and the old
//     handle closes. The old epoch is only released here; Abort at any
//     earlier point swaps the handle back and rolls every server back
//     byte-for-byte, dropping the window's records with the new bundle.
//
// A retrieval holds the handle it read until it returns, so each swap
// waits out the reads in flight on the handle it replaces.
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
	// requires before trusting the optimality report (default 4). Once
	// the copy is verified every retrieval feeds the auditor; an idle
	// cluster can pump traffic with Rescale.Verify.
	GuardMinQueries uint64
	// DisableGuard cuts over as soon as the copy is verified, without
	// waiting on the optimality auditor.
	DisableGuard bool
	// DialOptions are extra options for dialing the new epoch's
	// coordinator — e.g. a request timeout, or a fault injector so chaos
	// schedules also exercise the migration stream and the window's
	// reads.
	DialOptions []DialOption
}

// RescaleStatus is the migration driver's progress, digests included.
type RescaleStatus = rebalance.DriverStatus

// Rescale is a live rescale in flight (or finished); obtain one from
// Cluster.Rescale.
type Rescale struct {
	c             *Cluster
	driver        *rebalance.Driver
	old, newCoord *Coordinator

	done chan struct{}
	err  error
}

// Rescale starts a live rescale to cfg.NewM devices and returns a
// handle immediately; the migration runs in the background. Watch it
// with Status/Wait (or the cluster's /debug/rescale), steer it with
// Pause/Resume/Abort, and pump self-check traffic with Verify. Only the
// distributed backend rescales, one rescale at a time.
//
// While the rescale runs the cluster's views — Coordinator, M, /metrics,
// OptimalityReport and the rest — show the epoch that answers: the old
// one until the copy is verified, the new one after.
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
	// cluster's objectives now and becomes the cluster's at the swap. The
	// dial comes before Prepare, when the old servers cannot describe the
	// new epoch yet, so it is handed the spec they are about to get (last
	// of the cluster's own options: Open may have handed the old one).
	dialOpts := append(append([]DialOption{netdist.WithEpoch(old.Epoch() + 1)}, c.dialOpts...), netdist.WithSpec(newSpec))
	dialOpts = append(dialOpts, cfg.DialOptions...)
	newCoord, err := netdist.Dial(c.file, cfg.Addrs, dialOpts...)
	if err != nil {
		return nil, fmt.Errorf("fxdist: dial new-epoch coordinator: %w", err)
	}
	r := &Rescale{c: c, old: old, newCoord: newCoord, done: make(chan struct{})}
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
		OldSpec:        oldSpec,
		NewSpec:        newSpec,
		Epoch:          old.Epoch(),
		Transport:      transport,
		JournalPath:    journal,
		Concurrency:    cfg.Concurrency,
		Swap:           func() { c.swap(newCoord) },
		BeforeRollback: func() { c.swap(old) },
	}
	if !cfg.DisableGuard {
		dcfg.Guard = rebalance.AuditGuard(next.AuditReport, cfg.NewM, cfg.GuardMinQueries)
	}
	driver, err := rebalance.NewDriver(dcfg)
	if err != nil {
		c.resc.CompareAndSwap(r, nil)
		newCoord.Close() // idempotent: a Close racing the publish may have closed it too
		return nil, err
	}
	r.driver = driver
	c.driver.Store(driver)

	go func() { r.finish(driver.Run(ctx)) }()
	return r, nil
}

// finish records the driver's outcome and closes the handle of the
// epoch that no longer answers.
func (r *Rescale) finish(err error) {
	r.err = err
	switch {
	case errors.Is(err, rebalance.ErrPartialCutover):
		// Past the point of no return with stragglers: keep answering
		// from the new epoch (most servers promoted; the old epoch no
		// longer exists on them) and surface the error. Recovery is
		// re-running the rescale against the same journal, which
		// replays the idempotent cutover broadcast.
	case err != nil:
		// Rolled back: BeforeRollback already swapped the old epoch's
		// handle back in.
		r.c.resc.CompareAndSwap(r, nil)
		r.newCoord.Close()
	default:
		r.c.resc.CompareAndSwap(r, nil)
		r.old.Close()
	}
	close(r.done)
}

// Status snapshots the migration.
func (r *Rescale) Status() RescaleStatus { return r.driver.Status() }

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

// Verify pumps self-check queries through the cluster: once the copy is
// verified each one reads the new epoch and feeds the cutover guard's
// audit floor. It returns the first query error.
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
