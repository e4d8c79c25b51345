package fxdist

import (
	"context"
	"errors"
	"fmt"

	"fxdist/internal/netdist"
	"fxdist/internal/rebalance"
)

// Live elastic rescaling: grow a distributed cluster from M to 2M
// devices (or shrink 2M to M) with zero downtime, as an epoch transition
// that rebalance.Driver runs: copying, verified, cutover (DESIGN §12
// states the protocol and its invariants once). The cluster's handle
// reads the old epoch until the copy is proven, the new one after; a
// retrieval holds the handle it read until it returns, so each swap
// waits out the reads in flight on the handle it replaces. Abort before
// cutover swaps the handle back and rolls every server back. Progress
// journals through RescaleConfig.Journal, so a coordinator killed
// mid-migration resumes instead of restarting.

// RescaleConfig configures Cluster.Rescale.
type RescaleConfig struct {
	// Addrs is the post-rescale address list: Addrs[i] must serve device
	// i under the new M. Growing, the first M entries are the current
	// servers and the rest must already run empty rescale-target servers
	// (NewRescaleTargetServer, or `fxnode serve -rescale-target`);
	// shrinking, Addrs is a prefix of the current list. Its length is
	// the new M: exactly double or half the current one.
	Addrs []string
	// Journal, when set, persists migration progress: a coordinator
	// killed mid-rescale resumes from it instead of re-streaming every
	// bucket. Set by fxnode rescale -journal.
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

// Rescale starts a live rescale to len(cfg.Addrs) devices and returns a
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
	oldM, newM := old.M(), len(cfg.Addrs)
	if newM != 2*oldM && oldM != 2*newM {
		return nil, fmt.Errorf("fxdist: rescale %d -> %d devices: only doubling or halving is supported", oldM, newM)
	}
	if cfg.GuardMinQueries == 0 {
		cfg.GuardMinQueries = 4
	}

	// The new epoch reuses the method and per-field settings of the spec
	// every server agreed on at Dial, with M doubled or halved.
	oldSpec := old.Spec()
	newSpec, err := oldSpec.Rescaled(newM)
	if err != nil {
		return nil, err
	}

	// Dial the new epoch's coordinator over the post-rescale address
	// list, with the cluster's own options. It audits into its own
	// bundle, so the cutover guard reads the new layout's optimality in
	// isolation; the bundle takes the cluster's objectives now and
	// becomes the cluster's at the swap. The dial comes before Prepare,
	// when no server can describe the new epoch yet, so it is handed the
	// epoch and the spec they are about to get (last: Open may have
	// handed the old spec).
	dialOpts := append(append([]netdist.DialOption{netdist.WithEpoch(old.Epoch() + 1)}, c.dialOpts...), netdist.WithSpec(newSpec))
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
	if oldM > newM {
		transport = old
	}
	dcfg := rebalance.DriverConfig{
		OldSpec:        oldSpec,
		NewSpec:        newSpec,
		Epoch:          old.Epoch(),
		Transport:      transport,
		JournalPath:    cfg.Journal,
		Concurrency:    cfg.Concurrency,
		Swap:           func() { c.swap(newCoord) },
		BeforeRollback: func() { c.swap(old) },
	}
	if !cfg.DisableGuard {
		dcfg.Guard = rebalance.AuditGuard(next.AuditReport, newM, cfg.GuardMinQueries)
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

// NewRescaleTargetServer builds an empty device server for a device
// joining the cluster in a grow (device IDs M..2M-1 under the new
// spec). It serves no epoch until the rescale's Prepare names the one
// the cluster grows into; the migration then installs its buckets.
func NewRescaleTargetServer(deviceID int, spec AllocatorSpec) (*DeviceServer, error) {
	return netdist.NewTargetServer(deviceID, spec)
}
