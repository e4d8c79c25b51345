package rebalance

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/persist"
)

// Transport is the migration-stream surface the rescale driver speaks —
// one control round trip per call against one device server.
// netdist.Coordinator satisfies it; the transport handed to a driver
// must span the union of old and new device sets (for a grow that is
// the new, larger coordinator; for a shrink the old one).
type Transport interface {
	Prepare(ctx context.Context, dev int, spec decluster.Spec) error
	FetchBucket(ctx context.Context, dev, bucket int) ([]mkhash.Record, error)
	InstallBucket(ctx context.Context, dev, bucket int, recs []mkhash.Record) error
	CutoverDevice(ctx context.Context, dev int) error
	AbortRescale(ctx context.Context, dev int) error
	// Digest digests the records device dev owns at epoch.
	Digest(ctx context.Context, dev, epoch int) (mkhash.Digest, error)
}

// DriverConfig configures one live rescale run.
type DriverConfig struct {
	// OldSpec and NewSpec are the pre- and post-rescale allocator specs;
	// NewSpec.M must be exactly double or half OldSpec.M.
	OldSpec, NewSpec decluster.Spec
	// Epoch is the epoch the fleet serves under OldSpec; NewSpec's is
	// Epoch+1. The copy is proven by digesting both.
	Epoch int
	// Transport reaches every device in the union of the two epochs.
	Transport Transport
	// JournalPath, when set, persists migration progress after every
	// FlushEvery buckets, so a killed coordinator resumes where it
	// stopped instead of re-streaming the whole move set.
	JournalPath string
	// Concurrency bounds in-flight bucket copies (default 4). Each copy
	// is one fetch plus one install, so the bound also backpressures the
	// per-device streams.
	Concurrency int
	// Retries is the attempt count per control op (default 5); attempts
	// back off exponentially from RetryBackoff (default 10ms). Rescales
	// run under the same fault injector as queries, so transient device
	// failures during migration are expected, not fatal.
	Retries      int
	RetryBackoff time.Duration
	// FlushEvery is the journal flush cadence in completed buckets
	// (default 64).
	FlushEvery int
	// Guard gates cutover: polled during the verified phase until it
	// returns nil. AuditGuard wires the optimality auditor in here — the
	// old epoch is never released while the new layout's per-shape
	// deviation exceeds the Doerr bound. Nil means cut over immediately.
	Guard func() error
	// GuardPoll is the Guard polling interval (default 50ms).
	GuardPoll time.Duration
	// Swap is called once the copy is proven, before the guard runs: the
	// serving tier moves its reads to the new epoch here, which then
	// feed the guard.
	Swap func()
	// BeforeRollback is called when a failed or aborted run is about to
	// roll the servers back. The serving tier must move its reads back
	// to the old epoch here (the new one's prepared views are about to
	// drop).
	BeforeRollback func()
}

// Driver phases, beyond the journalled persist.Rescale* ones.
const (
	PhasePlanning = "planning"
	PhaseFailed   = "failed"
)

// DriverStatus is a point-in-time snapshot of a rescale run.
type DriverStatus struct {
	Phase        string  `json:"phase"`
	OldM         int     `json:"old_m"`
	NewM         int     `json:"new_m"`
	TotalMoves   int     `json:"total_moves"`
	Copied       int     `json:"copied"`
	MoveFraction float64 `json:"move_fraction"`
	Paused       bool    `json:"paused"`
	// OldDigest and NewDigest are the copy's proof: the records each
	// epoch owns, across its devices. Zero until the copy is digested,
	// and in a run resumed past the proof; the run goes on only when
	// they are equal.
	OldDigest    mkhash.Digest `json:"old_digest"`
	NewDigest    mkhash.Digest `json:"new_digest"`
	Err          string        `json:"err,omitempty"`
	LastGuardErr string        `json:"last_guard_err,omitempty"`
}

// Driver executes one live rescale: prepare every surviving server with
// the new epoch's spec, stream the moving buckets old-owner → new-owner
// with bounded concurrency, prove the copy by digesting both epochs,
// swap the serving tier to the new epoch, hold until the optimality
// guard admits the new layout, then cut over. The old partition stays
// authoritative (and untouched) until cutover, so Abort at any earlier
// point is a complete rollback.
type Driver struct {
	cfg  DriverConfig
	plan RescalePlan

	mu        sync.Mutex
	phase     string
	copied    int
	paused    bool
	resumeCh  chan struct{} // closed to wake pause waiters; nil when running
	runErr    error
	guardErr  error
	doneCount map[int]struct{} // bucket -> copied this or a prior run
	digests   [2]mkhash.Digest // old epoch, new epoch
	// proven is set when a prior run's journal is past the copy's
	// proof: this run skips the copy and the proof (see adoptJournal).
	proven bool

	cancelMu sync.Mutex
	cancel   context.CancelFunc

	// events holds the run's newest eventRing events (/debug/rescale);
	// once it is full, next is the slot of the oldest.
	evMu   sync.Mutex
	events []Event
	next   int
}

// Event is one wide event of a rescale run: a phase transition, a
// bucket copied, a pause, the cutover guard's verdicts. The driver keeps
// the newest eventRing for /debug/rescale; everything is also a line in
// its status, so losing old entries loses no state.
type Event struct {
	Time  time.Time `json:"time"`
	Phase string    `json:"phase"`
	Msg   string    `json:"msg"`
	// Copied/Total snapshot migration progress at the time of the
	// event; Bucket/From/To identify the bucket a "bucket copied" event
	// moved.
	Copied int `json:"copied"`
	Total  int `json:"total"`
	Bucket int `json:"bucket"`
	From   int `json:"from"`
	To     int `json:"to"`
}

const eventRing = 256

// log appends one event to the run's ring.
func (d *Driver) log(ev Event) {
	ev.Time = time.Now()
	d.evMu.Lock()
	defer d.evMu.Unlock()
	if len(d.events) < eventRing {
		d.events = append(d.events, ev)
		return
	}
	d.events[d.next] = ev
	d.next = (d.next + 1) % eventRing
}

// Events returns the retained events of the run, oldest first.
func (d *Driver) Events() []Event {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	out := make([]Event, 0, len(d.events))
	out = append(out, d.events[d.next:]...)
	return append(out, d.events[:d.next]...)
}

// NewDriver plans the rescale and, when JournalPath holds a compatible
// journal from a killed run, adopts its progress. The returned driver
// has not contacted any server yet; call Run.
func NewDriver(cfg DriverConfig) (*Driver, error) {
	if cfg.Transport == nil {
		return nil, errors.New("rebalance: driver needs a transport")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 5
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 64
	}
	if cfg.GuardPoll <= 0 {
		cfg.GuardPoll = 50 * time.Millisecond
	}
	oldAlloc, err := cfg.OldSpec.Build()
	if err != nil {
		return nil, fmt.Errorf("rebalance: old spec: %w", err)
	}
	newAlloc, err := cfg.NewSpec.Build()
	if err != nil {
		return nil, fmt.Errorf("rebalance: new spec: %w", err)
	}
	plan, err := PlanRescale(oldAlloc, newAlloc)
	if err != nil {
		return nil, err
	}
	d := &Driver{
		cfg:       cfg,
		plan:      plan,
		phase:     PhasePlanning,
		doneCount: make(map[int]struct{}),
	}
	if cfg.JournalPath != "" {
		if st, err := persist.LoadRescale(cfg.JournalPath); err == nil {
			if err := d.adoptJournal(st); err != nil {
				return nil, err
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return d, nil
}

// adoptJournal resumes from a prior run's journal: same specs, not yet
// finished. Buckets recorded done are skipped (install is idempotent,
// so the at-least-once boundary around a crash is harmless). A journal
// at verified — or at dual-read, the name builds before the digest gave
// that phase — was written once every bucket was copied and, by this
// build, proven: the resumed run goes straight to the swap, the guard
// and the cutover broadcast. It must not prove the copy again, since
// after a partial cutover the promoted devices no longer serve the old
// epoch to digest.
func (d *Driver) adoptJournal(st *persist.RescaleState) error {
	if st.Phase == persist.RescaleDone || st.Phase == persist.RescaleAborted {
		return fmt.Errorf("rebalance: journal %s records a finished rescale (%s); remove it to start a new one", d.cfg.JournalPath, st.Phase)
	}
	if !specsMatch(st.OldSpec, d.cfg.OldSpec) || !specsMatch(st.NewSpec, d.cfg.NewSpec) {
		return fmt.Errorf("rebalance: journal %s belongs to a different rescale", d.cfg.JournalPath)
	}
	for _, b := range st.Done {
		d.doneCount[b] = struct{}{}
	}
	d.copied = len(d.doneCount)
	d.proven = st.Phase == persist.RescaleVerified || st.Phase == "dual-read"
	if d.proven {
		d.phase = persist.RescaleVerified
	}
	d.log(Event{
		Phase: st.Phase, Msg: "resumed from journal",
		Copied: d.copied, Total: len(d.plan.Moves),
	})
	return nil
}

func specsMatch(a, b decluster.Spec) bool {
	if a.Method != b.Method || a.M != b.M || len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			return false
		}
	}
	return true
}

// Plan returns the rescale's move plan.
func (d *Driver) Plan() RescalePlan { return d.plan }

// Status snapshots the run.
func (d *Driver) Status() DriverStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DriverStatus{
		Phase:        d.phase,
		OldM:         d.plan.OldM,
		NewM:         d.plan.NewM,
		TotalMoves:   len(d.plan.Moves),
		Copied:       d.copied,
		MoveFraction: d.plan.MoveFraction(),
		Paused:       d.paused,
		OldDigest:    d.digests[0],
		NewDigest:    d.digests[1],
	}
	if d.runErr != nil {
		st.Err = d.runErr.Error()
	}
	if d.guardErr != nil {
		st.LastGuardErr = d.guardErr.Error()
	}
	return st
}

// Pause stops issuing new bucket copies (in-flight ones finish) and
// holds the guard loop. Safe in any phase.
func (d *Driver) Pause() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.paused {
		d.paused = true
		d.resumeCh = make(chan struct{})
		d.log(Event{Phase: d.phase, Msg: "paused", Copied: d.copied, Total: len(d.plan.Moves)})
	}
}

// Resume lifts a Pause.
func (d *Driver) Resume() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.paused {
		d.paused = false
		close(d.resumeCh)
		d.resumeCh = nil
		d.log(Event{Phase: d.phase, Msg: "resumed", Copied: d.copied, Total: len(d.plan.Moves)})
	}
}

// Abort cancels the run. Run then rolls the servers back (every
// installed bucket deleted, prepared views dropped) and returns
// ErrAborted.
func (d *Driver) Abort() {
	d.cancelMu.Lock()
	cancel := d.cancel
	d.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// ErrAborted is returned by Run when the rescale was aborted (by Abort
// or context cancellation) and rolled back.
var ErrAborted = errors.New("rebalance: rescale aborted")

// ErrDigestMismatch is wrapped by Run when the new epoch's records do
// not digest as the old epoch's once every bucket is copied. The run
// rolls back before any read reaches the new epoch.
var ErrDigestMismatch = errors.New("rebalance: the new epoch's records do not digest as the old epoch's")

// ErrPartialCutover is wrapped by Run when some devices cut over and
// others stayed unreachable through the retry budget. The migration is
// NOT rolled back — cutover is one-way once any device promotes — and
// the journal stays at verified; re-running the driver replays the
// idempotent cutover broadcast until the stragglers converge.
var ErrPartialCutover = errors.New("rebalance: cutover incomplete on some devices")

// waitIfPaused blocks while the driver is paused.
func (d *Driver) waitIfPaused(ctx context.Context) error {
	for {
		d.mu.Lock()
		ch := d.resumeCh
		d.mu.Unlock()
		if ch == nil {
			return ctx.Err()
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (d *Driver) setPhase(phase, msg string) {
	d.mu.Lock()
	d.phase = phase
	copied := d.copied
	d.mu.Unlock()
	d.log(Event{Phase: phase, Msg: msg, Copied: copied, Total: len(d.plan.Moves)})
}

// retry runs op with the configured attempt budget and backoff.
func (d *Driver) retry(ctx context.Context, op func() error) error {
	backoff := d.cfg.RetryBackoff
	var err error
	for attempt := 0; attempt < d.cfg.Retries; attempt++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		if err = op(); err == nil {
			return nil
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
	return err
}

// Run executes the rescale to completion. It is not restartable on the
// same Driver; after a crash, build a new Driver with the same
// JournalPath to resume. On abort or failure the servers are rolled
// back before Run returns.
func (d *Driver) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	d.cancelMu.Lock()
	d.cancel = cancel
	d.cancelMu.Unlock()
	defer cancel()

	err := d.run(ctx)
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrPartialCutover) {
		// Past the point of no return: some servers promoted. No
		// rollback — the journal keeps the verified phase so a rebuilt
		// driver replays the idempotent cutover broadcast.
		d.mu.Lock()
		d.phase = PhaseFailed
		d.runErr = err
		d.mu.Unlock()
		d.log(Event{Phase: PhaseFailed, Msg: err.Error(), Copied: d.copied, Total: len(d.plan.Moves)})
		return err
	}
	// Roll back with a fresh context: the run context is likely the
	// cancellation that got us here.
	if d.cfg.BeforeRollback != nil {
		d.cfg.BeforeRollback()
	}
	d.rollback(context.Background())
	d.mu.Lock()
	d.phase = PhaseFailed
	if errors.Is(err, context.Canceled) {
		err = ErrAborted
		d.phase = persist.RescaleAborted
	}
	d.runErr = err
	d.mu.Unlock()
	d.journal(persist.RescaleAborted)
	d.log(Event{Phase: d.phase, Msg: err.Error(), Copied: d.copied, Total: len(d.plan.Moves)})
	return err
}

func (d *Driver) run(ctx context.Context) error {
	if !d.proven {
		if err := d.copyAndProve(ctx); err != nil {
			return err
		}
	}
	// Verified: the new epoch owns exactly the old epoch's records, so
	// the serving tier reads it alone while the guard watches the new
	// layout's optimality. The phase says so only once the swap is done.
	if d.cfg.Swap != nil {
		d.cfg.Swap()
	}
	d.setPhase(persist.RescaleVerified, "copy proven; reads swapped to the new epoch")
	d.journal(persist.RescaleVerified)
	if err := d.holdForGuard(ctx); err != nil {
		return err
	}

	// Cutover: broadcast to the union. Retiring servers and fresh
	// targets answer success without state, so replay after a crash
	// converges. The broadcast runs under a background context (an
	// abort arriving now must not strand half the fleet) and visits
	// every device even after a failure, maximizing convergence.
	d.setPhase(persist.RescaleVerified, "guard passed; cutting over")
	union := d.plan.OldM
	if d.plan.NewM > union {
		union = d.plan.NewM
	}
	cctx := context.Background()
	var cutFailed []int
	var lastErr error
	for dev := 0; dev < union; dev++ {
		dev := dev
		if err := d.retry(cctx, func() error { return d.cfg.Transport.CutoverDevice(cctx, dev) }); err != nil {
			cutFailed = append(cutFailed, dev)
			lastErr = err
		}
	}
	if len(cutFailed) > 0 {
		return fmt.Errorf("%w: devices %v (last error: %v)", ErrPartialCutover, cutFailed, lastErr)
	}
	d.setPhase(persist.RescaleDone, "cutover complete")
	d.journal(persist.RescaleDone)
	return nil
}

// copyAndProve prepares the surviving servers, copies the moving
// buckets and proves the copy.
func (d *Driver) copyAndProve(ctx context.Context) error {
	survivors := d.plan.OldM
	if d.plan.NewM < survivors {
		survivors = d.plan.NewM
	}

	// Prepare: every surviving server learns the next epoch's spec and
	// starts answering at both epochs. Idempotent, so a resumed run
	// re-prepares harmlessly.
	d.setPhase(persist.RescaleCopying, "preparing servers")
	for dev := 0; dev < survivors; dev++ {
		dev := dev
		if err := d.retry(ctx, func() error { return d.cfg.Transport.Prepare(ctx, dev, d.cfg.NewSpec) }); err != nil {
			return fmt.Errorf("rebalance: prepare device %d: %w", dev, err)
		}
	}
	d.journal(persist.RescaleCopying)

	// Copy: stream every moving bucket from its old owner to its new
	// one, Concurrency at a time. The fetch-install pair is the unit of
	// retry and of journalling.
	if err := d.copyBuckets(ctx); err != nil {
		return err
	}
	d.journal(persist.RescaleCopying)
	return d.proveCopy(ctx)
}

// copyBuckets drains the move set with bounded concurrency.
func (d *Driver) copyBuckets(ctx context.Context) error {
	sem := make(chan struct{}, d.cfg.Concurrency)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	sinceFlush := 0
	for _, mv := range d.plan.Moves {
		d.mu.Lock()
		_, done := d.doneCount[mv.Bucket]
		d.mu.Unlock()
		if done {
			continue
		}
		if err := d.waitIfPaused(ctx); err != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		if len(errCh) > 0 {
			<-sem
			break
		}
		wg.Add(1)
		go func(mv Move) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := d.copyOne(ctx, mv); err != nil {
				fail(err)
				return
			}
			d.mu.Lock()
			d.doneCount[mv.Bucket] = struct{}{}
			d.copied = len(d.doneCount)
			copied := d.copied
			d.mu.Unlock()
			d.log(Event{
				Phase: persist.RescaleCopying, Msg: "bucket copied",
				Bucket: mv.Bucket, From: mv.From, To: mv.To,
				Copied: copied, Total: len(d.plan.Moves),
			})
		}(mv)
		sinceFlush++
		if sinceFlush >= d.cfg.FlushEvery {
			sinceFlush = 0
			wg.Wait() // journal a consistent prefix
			d.journal(persist.RescaleCopying)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	return ctx.Err()
}

// copyOne moves one bucket: fetch from the old owner, install on the
// new one. Each leg retries independently.
func (d *Driver) copyOne(ctx context.Context, mv Move) error {
	var recs []mkhash.Record
	err := d.retry(ctx, func() error {
		var ferr error
		recs, ferr = d.cfg.Transport.FetchBucket(ctx, mv.From, mv.Bucket)
		return ferr
	})
	if err != nil {
		return fmt.Errorf("rebalance: fetch bucket %d from device %d: %w", mv.Bucket, mv.From, err)
	}
	err = d.retry(ctx, func() error { return d.cfg.Transport.InstallBucket(ctx, mv.To, mv.Bucket, recs) })
	if err != nil {
		return fmt.Errorf("rebalance: install bucket %d on device %d: %w", mv.Bucket, mv.To, err)
	}
	return nil
}

// proveCopy digests the old epoch across its devices and the new epoch
// across its own, and fails the run unless the two are equal. One round
// trip per device covers every bucket, moved by the plan or not.
func (d *Driver) proveCopy(ctx context.Context) error {
	var sums [2]mkhash.Digest
	for i, side := range []struct{ m, epoch int }{{d.plan.OldM, d.cfg.Epoch}, {d.plan.NewM, d.cfg.Epoch + 1}} {
		for dev := 0; dev < side.m; dev++ {
			var dig mkhash.Digest
			err := d.retry(ctx, func() error {
				var derr error
				dig, derr = d.cfg.Transport.Digest(ctx, dev, side.epoch)
				return derr
			})
			if err != nil {
				return fmt.Errorf("rebalance: digest device %d at epoch %d: %w", dev, side.epoch, err)
			}
			sums[i] = sums[i].Plus(dig)
		}
	}
	d.mu.Lock()
	d.digests = sums
	d.mu.Unlock()
	if sums[0] != sums[1] {
		return fmt.Errorf("%w: old epoch %d records (sum %#x), new epoch %d records (sum %#x)",
			ErrDigestMismatch, sums[0].Records, sums[0].Sum, sums[1].Records, sums[1].Sum)
	}
	return nil
}

// holdForGuard polls the cutover guard until it admits the new layout.
func (d *Driver) holdForGuard(ctx context.Context) error {
	if d.cfg.Guard == nil {
		return nil
	}
	tick := time.NewTicker(d.cfg.GuardPoll)
	defer tick.Stop()
	for {
		if err := d.waitIfPaused(ctx); err != nil {
			return err
		}
		gerr := d.cfg.Guard()
		d.mu.Lock()
		d.guardErr = gerr
		d.mu.Unlock()
		if gerr == nil {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// rollback broadcasts Abort to every device, best-effort.
func (d *Driver) rollback(ctx context.Context) {
	union := d.plan.OldM
	if d.plan.NewM > union {
		union = d.plan.NewM
	}
	for dev := 0; dev < union; dev++ {
		dev := dev
		_ = d.retry(ctx, func() error { return d.cfg.Transport.AbortRescale(ctx, dev) })
	}
}

// journal persists progress. Best-effort: a failed flush costs a
// resumed run some re-copies (installs are idempotent), never
// correctness.
func (d *Driver) journal(phase string) {
	if d.cfg.JournalPath == "" {
		return
	}
	d.mu.Lock()
	done := make([]int, 0, len(d.doneCount))
	for b := range d.doneCount {
		done = append(done, b)
	}
	d.mu.Unlock()
	sort.Ints(done)
	st := &persist.RescaleState{
		OldSpec: d.cfg.OldSpec,
		NewSpec: d.cfg.NewSpec,
		Phase:   phase,
		Done:    done,
	}
	_ = persist.SaveRescale(d.cfg.JournalPath, st)
}
