package rebalance

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/persist"
)

// fakeTransport simulates a fleet of device servers in memory: per-device
// current partitions (epoch 0), prepared flags, installed next-epoch
// buckets (epoch 1, under newAlloc), and cutover/abort broadcasts. An
// optional fault hook fails operations; an optional mangle hook rewrites
// what an install stores.
type fakeTransport struct {
	mu        sync.Mutex
	newAlloc  decluster.GroupAllocator
	buckets   map[int]map[int][]mkhash.Record // dev -> bucket -> records
	prepared  map[int]bool
	installed map[int]map[int][]mkhash.Record
	cut       map[int]bool
	aborted   map[int]bool
	fetches   map[int]int // bucket -> times fetched
	fault     func(op string, dev int) error
	mangle    func(bucket int, recs []mkhash.Record) []mkhash.Record
}

func newFakeTransport(t *testing.T, parts []map[int][]mkhash.Record, newSpec decluster.Spec) *fakeTransport {
	t.Helper()
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTransport{
		newAlloc:  newAlloc,
		buckets:   make(map[int]map[int][]mkhash.Record),
		prepared:  make(map[int]bool),
		installed: make(map[int]map[int][]mkhash.Record),
		cut:       make(map[int]bool),
		aborted:   make(map[int]bool),
		fetches:   make(map[int]int),
	}
	for dev, part := range parts {
		ft.buckets[dev] = part
	}
	return ft
}

func (ft *fakeTransport) fail(op string, dev int) error {
	if ft.fault == nil {
		return nil
	}
	return ft.fault(op, dev)
}

func (ft *fakeTransport) Prepare(_ context.Context, dev int, _ decluster.Spec) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("prepare", dev); err != nil {
		return err
	}
	ft.prepared[dev] = true
	return nil
}

func (ft *fakeTransport) FetchBucket(_ context.Context, dev, bucket int) ([]mkhash.Record, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("fetch", dev); err != nil {
		return nil, err
	}
	ft.fetches[bucket]++
	return ft.buckets[dev][bucket], nil
}

func (ft *fakeTransport) InstallBucket(_ context.Context, dev, bucket int, recs []mkhash.Record) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("install", dev); err != nil {
		return err
	}
	if ft.installed[dev] == nil {
		ft.installed[dev] = make(map[int][]mkhash.Record)
	}
	if ft.mangle != nil {
		recs = ft.mangle(bucket, recs)
	}
	ft.installed[dev][bucket] = recs
	return nil
}

// installAll installs moves as a killed run left them: the proof after
// a resume digests what the fleet holds, not what the journal says.
func (ft *fakeTransport) installAll(moves []Move) {
	for _, mv := range moves {
		recs, _ := ft.FetchBucket(context.Background(), mv.From, mv.Bucket)
		ft.InstallBucket(context.Background(), mv.To, mv.Bucket, recs) //nolint:errcheck // no fault hook yet
	}
	clear(ft.fetches)
}

// Digest digests device dev's buckets at epoch 0, and at epoch 1 the
// ones it keeps under newAlloc plus the ones installed on it. A device
// that cut over no longer serves epoch 0.
func (ft *fakeTransport) Digest(_ context.Context, dev, epoch int) (mkhash.Digest, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("digest", dev); err != nil {
		return mkhash.Digest{}, err
	}
	if epoch == 0 && ft.cut[dev] {
		return mkhash.Digest{}, fmt.Errorf("epoch 0 not served (current 1) on device %d", dev)
	}
	var d mkhash.Digest
	fs := ft.newAlloc.FileSystem()
	for b, recs := range ft.buckets[dev] {
		if epoch == 0 || ft.newAlloc.Device(fs.Coords(b, nil)) == dev {
			d = d.Plus(mkhash.DigestOf(recs))
		}
	}
	if epoch == 1 {
		for _, recs := range ft.installed[dev] {
			d = d.Plus(mkhash.DigestOf(recs))
		}
	}
	return d, nil
}

func (ft *fakeTransport) CutoverDevice(_ context.Context, dev int) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if err := ft.fail("cutover", dev); err != nil {
		return err
	}
	ft.cut[dev] = true
	return nil
}

func (ft *fakeTransport) AbortRescale(_ context.Context, dev int) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.aborted[dev] = true
	return nil
}

// growFixture builds a Modulo 2→4 rescale over a 4x4 grid with one
// record per bucket, partitioned under the old allocator.
func growFixture(t *testing.T) (oldSpec, newSpec decluster.Spec, parts []map[int][]mkhash.Record, plan RescalePlan) {
	t.Helper()
	oldSpec = decluster.Spec{Sizes: []int{4, 4}, M: 2, Method: decluster.MethodModulo}
	var err error
	newSpec, err = oldSpec.Rescaled(4)
	if err != nil {
		t.Fatal(err)
	}
	oldAlloc, err := oldSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err = PlanRescale(oldAlloc, newAlloc)
	if err != nil {
		t.Fatal(err)
	}
	fs := oldAlloc.FileSystem()
	parts = make([]map[int][]mkhash.Record, 4) // sized for the union
	for i := range parts {
		parts[i] = make(map[int][]mkhash.Record)
	}
	fs.EachBucket(func(b []int) {
		dev := oldAlloc.Device(b)
		idx := fs.Linear(b)
		parts[dev][idx] = []mkhash.Record{{fmt.Sprintf("r-%d", idx)}}
	})
	return oldSpec, newSpec, parts, plan
}

func TestDriverGrowHappyPath(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	ft := newFakeTransport(t, parts, newSpec)
	journal := filepath.Join(t.TempDir(), "rescale.journal")
	var swapped bool
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		JournalPath: journal,
		Swap:        func() { swapped = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Error("Swap never called")
	}
	if got := d.Status(); got.Phase != persist.RescaleDone || got.Copied != len(plan.Moves) ||
		got.OldDigest != got.NewDigest || got.NewDigest.Records != plan.Total {
		t.Errorf("status %+v, want done with %d copied and %d records digested on each epoch", got, len(plan.Moves), plan.Total)
	}
	// Every move landed on its planned destination with the old owner's
	// records, and every device in the union saw the cutover broadcast.
	for _, mv := range plan.Moves {
		recs := ft.installed[mv.To][mv.Bucket]
		if len(recs) != 1 || recs[0][0] != fmt.Sprintf("r-%d", mv.Bucket) {
			t.Errorf("bucket %d on device %d: got %v", mv.Bucket, mv.To, recs)
		}
	}
	for dev := 0; dev < 4; dev++ {
		if !ft.cut[dev] {
			t.Errorf("device %d never cut over", dev)
		}
	}
	st, err := persist.LoadRescale(journal)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != persist.RescaleDone {
		t.Errorf("journal phase %q, want done", st.Phase)
	}
}

func TestDriverResumeSkipsJournaledBuckets(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	journal := filepath.Join(t.TempDir(), "rescale.journal")

	// A prior run copied the first half of the moves, then died.
	done := make([]int, 0)
	for _, mv := range plan.Moves[:len(plan.Moves)/2] {
		done = append(done, mv.Bucket)
	}
	if err := persist.SaveRescale(journal, &persist.RescaleState{
		OldSpec: oldSpec, NewSpec: newSpec,
		Phase: persist.RescaleCopying, Done: done,
	}); err != nil {
		t.Fatal(err)
	}

	ft := newFakeTransport(t, parts, newSpec)
	ft.installAll(plan.Moves[:len(plan.Moves)/2])
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft, JournalPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, b := range done {
		if ft.fetches[b] != 0 {
			t.Errorf("bucket %d re-fetched despite journal", b)
		}
	}
	for _, mv := range plan.Moves[len(plan.Moves)/2:] {
		if ft.fetches[mv.Bucket] != 1 {
			t.Errorf("bucket %d fetched %d times, want 1", mv.Bucket, ft.fetches[mv.Bucket])
		}
	}
}

func TestDriverRetriesTransientFaults(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	ft := newFakeTransport(t, parts, newSpec)
	failures := map[string]int{}
	ft.fault = func(op string, dev int) error {
		key := fmt.Sprintf("%s-%d", op, dev)
		if failures[key] < 2 {
			failures[key]++
			return errors.New("transient")
		}
		return nil
	}
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		Retries: 4, RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("driver did not absorb transient faults: %v", err)
	}
}

func TestDriverAbortRollsBack(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	ft := newFakeTransport(t, parts, newSpec)
	var rolledBack bool
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		GuardPoll:      time.Millisecond,
		Guard:          func() error { return errors.New("not yet") },
		BeforeRollback: func() { rolledBack = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for d.Status().Phase != persist.RescaleVerified {
		if time.Now().After(deadline) {
			t.Fatalf("never reached verified: %+v", d.Status())
		}
		time.Sleep(time.Millisecond)
	}
	d.Abort()
	if err := <-errCh; !errors.Is(err, ErrAborted) {
		t.Fatalf("Run returned %v, want ErrAborted", err)
	}
	if !rolledBack {
		t.Error("BeforeRollback never called")
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for dev := 0; dev < 4; dev++ {
		if !ft.aborted[dev] {
			t.Errorf("device %d never got the abort broadcast", dev)
		}
		if ft.cut[dev] {
			t.Errorf("device %d cut over despite abort", dev)
		}
	}
}

// TestDriverRefusesAnUnprovenCopy: an install that loses one record
// fails the run on the digests, before the serving tier is swapped to
// the new epoch; nothing cuts over and every device is rolled back.
func TestDriverRefusesAnUnprovenCopy(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	ft := newFakeTransport(t, parts, newSpec)
	lossy := plan.Moves[len(plan.Moves)/2].Bucket
	ft.mangle = func(bucket int, recs []mkhash.Record) []mkhash.Record {
		if bucket == lossy {
			return recs[1:]
		}
		return recs
	}
	var swapped, rolledBack bool
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft,
		Swap:           func() { swapped = true },
		BeforeRollback: func() { rolledBack = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(context.Background())
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("Run returned %v, want a digest mismatch", err)
	}
	if swapped {
		t.Error("Swap ran for a copy that lost a record")
	}
	if !rolledBack {
		t.Error("BeforeRollback never called")
	}
	if st := d.Status(); st.OldDigest.Records != plan.Total || st.NewDigest.Records != plan.Total-1 {
		t.Errorf("status digests %+v / %+v, want %d and %d records", st.OldDigest, st.NewDigest, plan.Total, plan.Total-1)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for dev := 0; dev < 4; dev++ {
		if ft.cut[dev] {
			t.Errorf("device %d cut over on an unproven copy", dev)
		}
		if !ft.aborted[dev] {
			t.Errorf("device %d never got the abort broadcast", dev)
		}
	}
}

// TestDriverResumesAPreVerifiedJournal: a journal written in the phase
// this build calls verified under its older name still resumes, past
// the copy.
func TestDriverResumesAPreVerifiedJournal(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	journal := filepath.Join(t.TempDir(), "rescale.journal")
	var done []int
	for _, mv := range plan.Moves {
		done = append(done, mv.Bucket)
	}
	if err := persist.SaveRescale(journal, &persist.RescaleState{
		OldSpec: oldSpec, NewSpec: newSpec, Phase: "dual-read", Done: done,
	}); err != nil {
		t.Fatal(err)
	}
	ft := newFakeTransport(t, parts, newSpec)
	ft.installAll(plan.Moves)
	d, err := NewDriver(DriverConfig{OldSpec: oldSpec, NewSpec: newSpec, Transport: ft, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ft.fetches) != 0 {
		t.Errorf("resumed run re-fetched %v", ft.fetches)
	}
}

// TestDriverReplaysAPartialCutover: device 1 stays unreachable through
// the cutover broadcast, so Run stops with device 0 promoted and the
// journal at verified. A rebuilt driver on that journal must not prove
// the copy again (device 0 no longer serves the old epoch) nor roll
// back: it swaps, replays the cutover broadcast and converges.
func TestDriverReplaysAPartialCutover(t *testing.T) {
	oldSpec, newSpec, parts, _ := growFixture(t)
	journal := filepath.Join(t.TempDir(), "rescale.journal")
	ft := newFakeTransport(t, parts, newSpec)
	ft.fault = func(op string, dev int) error {
		if op == "cutover" && dev == 1 {
			return errors.New("unreachable")
		}
		return nil
	}
	cfg := DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft, JournalPath: journal,
		Retries: 2, RetryBackoff: time.Microsecond,
	}
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); !errors.Is(err, ErrPartialCutover) {
		t.Fatalf("Run returned %v, want a partial cutover", err)
	}
	if !ft.cut[0] || ft.cut[1] {
		t.Fatalf("cut over %v, want device 0 and not device 1", ft.cut)
	}

	ft.fault = nil
	var swapped, rolledBack bool
	cfg.Swap = func() { swapped = true }
	cfg.BeforeRollback = func() { rolledBack = true }
	d, err = NewDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Status().Phase; got != persist.RescaleVerified {
		t.Errorf("rebuilt driver starts at %q, want %q", got, persist.RescaleVerified)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("replay did not converge: %v", err)
	}
	if !swapped || rolledBack {
		t.Errorf("swapped %v, rolled back %v; want a swap and no rollback", swapped, rolledBack)
	}
	for dev := 0; dev < 4; dev++ {
		if !ft.cut[dev] {
			t.Errorf("device %d never cut over", dev)
		}
	}
	if len(ft.aborted) != 0 {
		t.Errorf("replay broadcast AbortRescale to %v", ft.aborted)
	}
	if st, err := persist.LoadRescale(journal); err != nil || st.Phase != persist.RescaleDone {
		t.Errorf("journal %+v (%v), want done", st, err)
	}
}

func TestDriverPauseHoldsCopies(t *testing.T) {
	oldSpec, newSpec, parts, plan := growFixture(t)
	ft := newFakeTransport(t, parts, newSpec)
	d, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec, Transport: ft, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Pause()
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	if got := d.Status().Copied; got != 0 {
		t.Fatalf("%d buckets copied while paused", got)
	}
	d.Resume()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := d.Status().Copied; got != len(plan.Moves) {
		t.Fatalf("%d buckets copied after resume, want %d", got, len(plan.Moves))
	}
}

func TestDriverRejectsFinishedJournal(t *testing.T) {
	oldSpec, newSpec, _, _ := growFixture(t)
	journal := filepath.Join(t.TempDir(), "rescale.journal")
	if err := persist.SaveRescale(journal, &persist.RescaleState{
		OldSpec: oldSpec, NewSpec: newSpec, Phase: persist.RescaleDone,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := NewDriver(DriverConfig{
		OldSpec: oldSpec, NewSpec: newSpec,
		Transport: newFakeTransport(t, nil, newSpec), JournalPath: journal,
	})
	if err == nil {
		t.Fatal("driver adopted a finished journal")
	}
}
