package netdist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/storage"
)

func TestRequestRescaleExtRoundTrip(t *testing.T) {
	reqs := []Request{
		{AsDevice: -1, Control: OpPrepare, SpecJSON: []byte(`{"M":8}`)},
		{AsDevice: -1, Control: OpFetch, Bucket: 17, Epoch: 3},
		{AsDevice: -1, Control: OpInstall, Bucket: 5, Payload: []mkhash.Record{
			{"a", "b"}, {"", "x\x00y"},
		}},
		{AsDevice: -1, Epoch: 1}, // epoch-stamped query, no control op
		{AsDevice: -1, Control: OpCutover},
		{AsDevice: -1, Control: OpAbort, Bucket: -3},
	}
	for i, req := range reqs {
		payload := appendRequest(nil, &req)
		if len(payload) != requestSize(&req) {
			t.Fatalf("case %d: encoded %d bytes, requestSize says %d", i, len(payload), requestSize(&req))
		}
		// Decode into a dirty Request: ext fields must be replaced, not
		// inherited.
		got := Request{Epoch: 99, Control: 99, Bucket: 99, SpecJSON: []byte("stale")}
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if req.Spec == nil {
			req.Spec = []int{}
		}
		if req.Match == nil {
			req.Match = mkhash.PartialMatch{}
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("case %d: round trip mismatch:\nsent %+v\ngot  %+v", i, req, got)
		}
	}
}

func TestPlainRequestResetsExtFields(t *testing.T) {
	plain := NewRequest([]int{0, 1, 2}, mkhash.PartialMatch{str("a"), nil, nil})
	payload := appendRequest(nil, &plain)
	got := Request{Epoch: 7, Control: OpFetch, Bucket: 12, SpecJSON: []byte("x"), Payload: []mkhash.Record{{"y"}}}
	if err := decodeRequest(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 0 || got.Control != 0 || got.Bucket != 0 || got.SpecJSON != nil || got.Payload != nil {
		t.Fatalf("ext fields survived a plain request: %+v", got)
	}
}

// deployRescaleFixture starts an oldM-device cluster plus empty rescale
// targets for devices oldM..newM-1, which serve no epoch until prepared,
// and dials coordinators at both epochs. The returned allocator is the one the old fleet was deployed
// under.
func deployRescaleFixture(t *testing.T, file *mkhash.File, oldM, newM int) (
	oldAlloc decluster.GroupAllocator, newSpec decluster.Spec,
	oldCoord, newCoord *Coordinator, cleanup func()) {
	t.Helper()
	fs, err := file.FileSystem(oldM)
	if err != nil {
		t.Fatal(err)
	}
	oldAlloc = decluster.MustFX(fs)
	oldSpec, err := decluster.SpecOf(oldAlloc)
	if err != nil {
		t.Fatal(err)
	}
	newSpec, err = oldSpec.Rescaled(newM)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stopOld, err := Deploy(file, oldAlloc)
	if err != nil {
		t.Fatal(err)
	}
	closers := []func(){stopOld}
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	allAddrs := append([]string(nil), addrs...)
	for dev := oldM; dev < newM; dev++ {
		srv, err := NewTargetServer(dev, newSpec)
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		closers = append(closers, srv.Close)
		allAddrs = append(allAddrs, l.Addr().String())
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}
	oldCoord, err = Dial(file, addrs)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	closers = append(closers, oldCoord.Close)
	// Dialed before Prepare, as the rescale does: no server serves epoch
	// 1 yet, so the epoch and the spec are handed over, not described.
	newCoord, err = Dial(file, allAddrs, WithEpoch(1), WithSpec(newSpec))
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	closers = append(closers, newCoord.Close)
	return oldAlloc, newSpec, oldCoord, newCoord, cleanup
}

// copyMoves streams every bucket whose owner changes between the two
// allocators, stopping after limit moves (limit < 0 means all). Returns
// how many buckets it moved.
func copyMoves(t *testing.T, ctx context.Context, coord *Coordinator,
	oldAlloc, newAlloc decluster.GroupAllocator, limit int) int {
	t.Helper()
	fs := oldAlloc.FileSystem()
	moved := 0
	fs.EachBucket(func(b []int) {
		if limit >= 0 && moved >= limit {
			return
		}
		from, to := oldAlloc.Device(b), newAlloc.Device(b)
		if from == to {
			return
		}
		idx := fs.Linear(b)
		recs, err := coord.FetchBucket(ctx, from, 0, idx)
		if err != nil {
			t.Fatalf("fetch bucket %d from device %d: %v", idx, from, err)
		}
		if err := coord.InstallBucket(ctx, to, 1, idx, recs); err != nil {
			t.Fatalf("install bucket %d on device %d: %v", idx, to, err)
		}
		moved++
	})
	return moved
}

// epochDigest sums OpDigest over devices 0..m-1 at epoch.
func epochDigest(t *testing.T, ctx context.Context, coord *Coordinator, m, epoch int) mkhash.Digest {
	t.Helper()
	var d mkhash.Digest
	for dev := 0; dev < m; dev++ {
		dig, err := coord.Digest(ctx, dev, epoch)
		if err != nil {
			t.Fatalf("digest device %d at epoch %d: %v", dev, epoch, err)
		}
		d = d.Plus(dig)
	}
	return d
}

// TestRescaleProtocolGrow drives the raw control ops through a 2→4 grow
// and checks both epochs answer correctly before and after cutover, and
// digest equally once the copy is complete — and unequally once one
// target loses a record.
func TestRescaleProtocolGrow(t *testing.T) {
	file := buildFile(t, 300)
	ctx := context.Background()
	oldAlloc, newSpec, oldCoord, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()

	pm := mkhash.PartialMatch{str("part7"), nil, nil}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := oldCoord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Records) != len(want) {
		t.Fatalf("baseline %d records, want %d", len(baseline.Records), len(want))
	}

	// A joining server serves no epoch until its Prepare names one.
	if _, err := newCoord.Digest(ctx, 2, 1); err == nil || !strings.Contains(err.Error(), "epoch 1 not served") {
		t.Fatalf("an unprepared target digested epoch 1: %v", err)
	}
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
			t.Fatalf("prepare %d: %v", dev, err)
		}
		// Idempotent re-prepare (the crash-resume path).
		if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
			t.Fatalf("re-prepare %d: %v", dev, err)
		}
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if moved := copyMoves(t, ctx, newCoord, oldAlloc, newAlloc, -1); moved == 0 {
		t.Fatal("fixture moved no buckets")
	}

	// The copy is proven: each epoch's devices digest the whole file.
	var all mkhash.Digest
	file.EachBucket(func(_ []int, recs []mkhash.Record) { all = all.Plus(mkhash.DigestOf(recs)) })
	if od, nd := epochDigest(t, ctx, oldCoord, 2, 0), epochDigest(t, ctx, newCoord, 4, 1); od != all || nd != all {
		t.Fatalf("digests after the copy: old epoch %+v, new epoch %+v, file %+v", od, nd, all)
	}
	// A target that lost one record breaks the proof; reinstalling the
	// bucket restores it.
	lossy := -1
	newAlloc.FileSystem().EachBucket(func(b []int) {
		if lossy < 0 && newAlloc.Device(b) >= 2 && len(file.Bucket(b)) > 1 {
			lossy = newAlloc.FileSystem().Linear(b)
		}
	})
	if lossy < 0 {
		t.Fatal("no moved bucket with two records")
	}
	dev := newAlloc.Device(newAlloc.FileSystem().Coords(lossy, nil))
	recs, err := oldCoord.FetchBucket(ctx, oldAlloc.Device(oldAlloc.FileSystem().Coords(lossy, nil)), 0, lossy)
	if err != nil {
		t.Fatal(err)
	}
	if err := newCoord.InstallBucket(ctx, dev, 1, lossy, recs[1:]); err != nil {
		t.Fatal(err)
	}
	if nd := epochDigest(t, ctx, newCoord, 4, 1); nd == all || nd.Records != all.Records-1 {
		t.Fatalf("new epoch digests %+v with a record deleted from device %d, file %+v", nd, dev, all)
	}
	if err := newCoord.InstallBucket(ctx, dev, 1, lossy, recs); err != nil {
		t.Fatal(err)
	}

	// Both epochs must now answer identically.
	oldRes, err := oldCoord.Retrieve(pm)
	if err != nil {
		t.Fatalf("old epoch mid-rescale: %v", err)
	}
	newRes, err := newCoord.Retrieve(pm)
	if err != nil {
		t.Fatalf("new epoch pre-cutover: %v", err)
	}
	if !reflect.DeepEqual(recordKeys(oldRes.Records), recordKeys(newRes.Records)) {
		t.Fatal("epochs disagree before cutover")
	}

	for dev := 0; dev < 4; dev++ {
		if err := newCoord.CutoverDevice(ctx, dev); err != nil {
			t.Fatalf("cutover %d: %v", dev, err)
		}
	}
	// The old epoch is gone: epoch-0 queries are rejected by the
	// promoted servers.
	if _, err := oldCoord.Retrieve(pm); err == nil {
		t.Fatal("old-epoch query succeeded after cutover")
	} else if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("old-epoch query failed for the wrong reason: %v", err)
	}
	// The new epoch answers the full result set.
	final, err := newCoord.Retrieve(pm)
	if err != nil {
		t.Fatalf("new epoch post-cutover: %v", err)
	}
	if !reflect.DeepEqual(recordKeys(final.Records), recordKeys(baseline.Records)) {
		t.Fatal("post-cutover records differ from baseline")
	}
}

// TestRescaleProtocolAbort installs a few buckets, aborts, and checks
// the fleet rolls back to exactly the old epoch.
func TestRescaleProtocolAbort(t *testing.T) {
	file := buildFile(t, 200)
	ctx := context.Background()
	oldAlloc, newSpec, oldCoord, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()

	pm := mkhash.PartialMatch{nil, str("sup3"), nil}
	baseline, err := oldCoord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
			t.Fatal(err)
		}
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if moved := copyMoves(t, ctx, newCoord, oldAlloc, newAlloc, 5); moved == 0 {
		t.Fatal("fixture moved no buckets")
	}
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.AbortRescale(ctx, dev, 1); err != nil {
			t.Fatalf("abort %d: %v", dev, err)
		}
	}
	// Old epoch unchanged; the next epoch is no longer served by the
	// survivors.
	after, err := oldCoord.Retrieve(pm)
	if err != nil {
		t.Fatalf("old epoch after abort: %v", err)
	}
	if !reflect.DeepEqual(recordKeys(after.Records), recordKeys(baseline.Records)) {
		t.Fatal("old epoch changed across an aborted rescale")
	}
	if _, err := newCoord.Retrieve(pm); err == nil {
		t.Fatal("aborted next epoch still answers")
	}
}

// TestRescalePartialCutoverReplayConverges replays the driver's
// recovery sequence after a partial cutover: some devices promoted,
// others didn't, and a rebuilt driver re-broadcasts Prepare to the new
// epoch's devices followed by Cutover to the union. Prepare on an
// already-promoted server must not manufacture a spurious next view —
// otherwise the replayed cutover bumps it a second epoch ahead of the
// stragglers and the fleet diverges instead of converging.
func TestRescalePartialCutoverReplayConverges(t *testing.T) {
	file := buildFile(t, 200)
	ctx := context.Background()
	oldAlloc, newSpec, oldCoord, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()

	pm := mkhash.PartialMatch{nil, str("sup3"), nil}
	baseline, err := oldCoord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
			t.Fatalf("prepare %d: %v", dev, err)
		}
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if moved := copyMoves(t, ctx, newCoord, oldAlloc, newAlloc, -1); moved == 0 {
		t.Fatal("fixture moved no buckets")
	}

	// Partial cutover: device 0 promotes, device 1 stays a straggler
	// (the crash/partition point).
	if err := newCoord.CutoverDevice(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// Recovery replay, twice — convergence must also be stable under
	// repeated replays.
	for round := 0; round < 2; round++ {
		for dev := 0; dev < 4; dev++ {
			if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
				t.Fatalf("round %d: replay prepare %d: %v", round, dev, err)
			}
		}
		for dev := 0; dev < 4; dev++ {
			if err := newCoord.CutoverDevice(ctx, dev); err != nil {
				t.Fatalf("round %d: replay cutover %d: %v", round, dev, err)
			}
		}
		// Every device now answers at the new epoch — a double-promoted
		// device would reject the coordinator's epoch-1 queries.
		final, err := newCoord.Retrieve(pm)
		if err != nil {
			t.Fatalf("round %d: new epoch after replay: %v", round, err)
		}
		if !reflect.DeepEqual(recordKeys(final.Records), recordKeys(baseline.Records)) {
			t.Fatalf("round %d: post-replay records differ from baseline", round)
		}
	}
}

// TestDialReadsTheFleetsEpoch: a Dial without WithEpoch serves the epoch
// every server reports, and refuses a fleet whose servers disagree,
// naming two of them: over the new address list inside the window (the
// joining servers already serve epoch 1, the old ones epoch 0) and
// after a partial cutover. Once every server has cut over it dials the
// new epoch.
func TestDialReadsTheFleetsEpoch(t *testing.T) {
	file := buildFile(t, 200)
	ctx := context.Background()
	oldAlloc, newSpec, oldCoord, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()
	addrs := newCoord.Addrs()
	refused := func(what string, a, b int) {
		t.Helper()
		c, err := Dial(file, addrs)
		if err == nil {
			c.Close()
			t.Fatalf("%s: dialed a split fleet", what)
		}
		for _, want := range []string{"disagree on the epoch", addrs[a], addrs[b]} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: %v, want it to name %q", what, err, want)
			}
		}
	}
	if c, err := Dial(file, addrs); err == nil || !strings.Contains(err.Error(), "device 2 ("+addrs[2]+") serves no epoch") {
		if c != nil {
			c.Close()
		}
		t.Fatalf("dial over unprepared rescale targets: %v", err)
	}
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
			t.Fatal(err)
		}
	}
	refused("inside the window", 0, 2)
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	copyMoves(t, ctx, newCoord, oldAlloc, newAlloc, -1)
	if err := newCoord.CutoverDevice(ctx, 1); err != nil {
		t.Fatal(err)
	}
	refused("after a partial cutover", 0, 1)
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.CutoverDevice(ctx, dev); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	pm := mkhash.PartialMatch{nil, str("sup3"), nil}
	want, err := file.Search(pm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Retrieve(pm)
	if err != nil || fresh.Epoch() != 1 || fresh.M() != 4 {
		t.Fatalf("fresh dial after cutover: epoch %d, M %d, err %v", fresh.Epoch(), fresh.M(), err)
	}
	if !reflect.DeepEqual(recordKeys(got.Records), recordKeys(want)) {
		t.Fatal("fresh dial after cutover answers other records than the file")
	}
	if _, err := oldCoord.Retrieve(pm); err == nil {
		t.Fatal("the old epoch answered after cutover")
	}
}

// TestRescaleControlValidation exercises the server-side rejection
// paths over the wire.
func TestRescaleControlValidation(t *testing.T) {
	file := buildFile(t, 100)
	ctx := context.Background()
	_, newSpec, _, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()

	if err := newCoord.Prepare(ctx, 0, 1, newSpec); err != nil {
		t.Fatal(err)
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs := newAlloc.FileSystem()

	// Installing a bucket on a device that does not own it under the
	// prepared spec must be rejected.
	foreign := -1
	fs.EachBucket(func(b []int) {
		if foreign < 0 && newAlloc.Device(b) != 0 {
			foreign = fs.Linear(b)
		}
	})
	if foreign < 0 {
		t.Fatal("no bucket owned by another device")
	}
	if err := newCoord.InstallBucket(ctx, 0, 1, foreign, nil); err == nil {
		t.Fatal("install accepted on a non-owner")
	}

	// Buckets outside the grid.
	if err := newCoord.InstallBucket(ctx, 0, 1, fs.NumBuckets()+10, nil); err == nil {
		t.Fatal("install accepted an out-of-grid bucket")
	}
	if _, err := newCoord.FetchBucket(ctx, 0, 0, -1); err == nil {
		t.Fatal("fetch accepted a negative bucket")
	}

	// A payload record of the wrong arity must be refused: the record loop
	// indexes records by field, so serving one would crash the server on
	// the next query that filters past the record's end. The query that
	// follows — a filter on the last field, over the bucket's own
	// coordinates — must be answered.
	own := -1
	fs.EachBucket(func(b []int) {
		if own < 0 && newAlloc.Device(b) == 0 {
			own = fs.Linear(b)
		}
	})
	if own < 0 {
		t.Fatal("no bucket owned by device 0")
	}
	if err := newCoord.InstallBucket(ctx, 0, 1, own, []mkhash.Record{{"only-one-field"}}); err == nil {
		t.Fatal("install accepted a 1-field record into a 3-field file")
	}
	probe := NewRequest(fs.Coords(own, nil), mkhash.PartialMatch{nil, nil, str("wh1")})
	probe.Epoch = 1
	resp, _, _, _, err := newCoord.conns[0].roundTrip(ctx, probe, 0)
	if err != nil || resp.Err != "" || resp.Buckets != 1 {
		t.Fatalf("query after the refused install: %d buckets, err %v %q", resp.Buckets, err, resp.Err)
	}

	// A conflicting prepared spec must be rejected until aborted.
	other := newSpec
	other.Method = decluster.MethodModulo
	other.Kinds = nil
	if err := newCoord.Prepare(ctx, 0, 1, other); err == nil {
		t.Fatal("conflicting prepare accepted")
	}
	// So must a Prepare naming an epoch other than the next, and one of
	// another spec than a rescale target's own.
	if err := newCoord.Prepare(ctx, 1, 2, newSpec); err == nil || !strings.Contains(err.Error(), "epoch 2 named, serving epoch 0") {
		t.Fatalf("prepare two epochs ahead: %v", err)
	}
	if err := newCoord.Prepare(ctx, 2, 1, other); err == nil || !strings.Contains(err.Error(), "a rescale target under") {
		t.Fatalf("prepare of a target under another spec: %v", err)
	}

	// An unserved epoch is rejected: at Dial when the servers are asked
	// to describe it, per query when the spec was handed over.
	if c, err := Dial(file, newCoord.Addrs(), WithEpoch(7)); err == nil {
		c.Close()
		t.Fatal("dial described an epoch no server serves")
	}
	bogus, err := Dial(file, newCoord.Addrs(), WithEpoch(7), WithSpec(newSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer bogus.Close()
	if _, err := bogus.Retrieve(mkhash.PartialMatch{str("part1"), nil, nil}); err == nil {
		t.Fatal("epoch-7 query answered")
	}
}

// TestRescalePrepareRejectsReplicated: replicated deployments sit out
// rescales — a server holding a backup partition refuses to prepare.
func TestRescalePrepareRejectsReplicated(t *testing.T) {
	file := buildFile(t, 100)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx := decluster.MustFX(fs)
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewReplicatedServer(1, spec, parts[1], parts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	next, err := spec.Rescaled(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	resp := srv.control(&Request{Control: OpPrepare, SpecJSON: b})
	if resp.Err == "" || !strings.Contains(resp.Err, "replicated") {
		t.Fatalf("replicated server accepted prepare: %q", resp.Err)
	}
}

// TestInstallAllocatesTheSameForAnySize: an Install's records are decoded
// into GC-owned chunks and the bucket's slab takes their values as they
// are, so moving a bucket of one record costs the allocations a bucket
// of 256 does.
func TestInstallAllocatesTheSameForAnySize(t *testing.T) {
	fs := decluster.MustFileSystem([]int{8, 8, 4}, 4)
	alloc := decluster.MustFX(fs)
	spec, err := decluster.SpecOf(alloc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(1, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	bucket := -1
	fs.EachBucket(func(b []int) {
		if bucket < 0 && alloc.Device(b) == 1 {
			bucket = fs.Linear(b)
		}
	})
	allocs := func(k int) float64 {
		req := Request{AsDevice: -1, Control: OpInstall, Bucket: bucket}
		for i := range k {
			req.Payload = append(req.Payload, mkhash.Record{fmt.Sprint("part", i), "sup", "wh"})
		}
		frame := appendRequest(nil, &req)
		return testing.AllocsPerRun(20, func() {
			var got Request
			if err := decodeRequest(frame, &got); err != nil {
				t.Fatal(err)
			}
			if resp := srv.install(&got); resp.Err != "" || resp.Scanned != k {
				t.Fatalf("install of %d records: %+v", k, resp)
			}
		})
	}
	one := allocs(1)
	for _, k := range []int{16, 256} {
		if n := allocs(k); n != one {
			t.Errorf("an install of %d records allocates %v times, one of 1 record %v", k, n, one)
		}
	}
}

// TestAbortedGrowLeavesTargetsEmpty: an abort returns a rescale target
// to its state before Prepare — serving no epoch, holding no records —
// though the grow had installed its share of the buckets on it.
func TestAbortedGrowLeavesTargetsEmpty(t *testing.T) {
	file := buildFile(t, 200)
	fs, err := file.FileSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	oldAlloc := decluster.MustFX(fs)
	oldSpec, err := decluster.SpecOf(oldAlloc)
	if err != nil {
		t.Fatal(err)
	}
	newSpec, err := oldSpec.Rescaled(4)
	if err != nil {
		t.Fatal(err)
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, oldAlloc)
	if err != nil {
		t.Fatal(err)
	}
	var fleet []*Server
	for dev := range 4 {
		var srv *Server
		if dev < 2 {
			srv, err = NewServer(dev, oldSpec, parts[dev])
		} else {
			srv, err = NewTargetServer(dev, newSpec)
		}
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, srv)
	}
	ctl := func(dev int, req Request) Response {
		t.Helper()
		req.AsDevice = -1
		resp := fleet[dev].control(&req)
		if resp.Err != "" {
			t.Fatalf("device %d op %d: %s", dev, req.Control, resp.Err)
		}
		return resp
	}
	spec, err := json.Marshal(newSpec)
	if err != nil {
		t.Fatal(err)
	}
	for dev := range fleet {
		ctl(dev, Request{Control: OpPrepare, Epoch: 1, SpecJSON: spec})
	}
	installed := 0
	fs.EachBucket(func(b []int) {
		from, to := oldAlloc.Device(b), newAlloc.Device(b)
		if from == to {
			return
		}
		resp := ctl(from, Request{Control: OpFetch, Bucket: fs.Linear(b)})
		n, _, _ := resp.found.Size()
		recs, _, err := mkhash.DecodeEncoded(resp.found.Bytes(), n)
		resp.found.Release()
		if err != nil {
			t.Fatal(err)
		}
		ctl(to, Request{Control: OpInstall, Epoch: 1, Bucket: fs.Linear(b), Payload: recs})
		installed += n
	})
	if installed == 0 {
		t.Fatal("fixture moved no records")
	}
	for dev := range fleet {
		ctl(dev, Request{Control: OpAbort, Epoch: 1})
	}
	for dev := 2; dev < 4; dev++ {
		var d description
		if err := json.Unmarshal(ctl(dev, Request{Control: OpDescribe}).StatsJSON, &d); err != nil {
			t.Fatal(err)
		}
		held := fleet[dev].cur.part.Buckets()
		if fleet[dev].next != nil {
			held += fleet[dev].next.part.Buckets()
		}
		if d.Epoch != noEpoch || held != 0 {
			t.Errorf("after an aborted grow target %d describes epoch %d and holds %d buckets", dev, d.Epoch, held)
		}
	}
}

// TestDialRefusesAPartialCutoverWhicheverDeviceWentFirst: every server
// is asked for the same epoch, so a fleet whose cutover reached device 0
// but not device 1 is refused like the converse — over the old list and
// the new — though device 1 serves the new epoch as its prepared view.
func TestDialRefusesAPartialCutoverWhicheverDeviceWentFirst(t *testing.T) {
	file := buildFile(t, 200)
	ctx := context.Background()
	oldAlloc, newSpec, oldCoord, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()
	for dev := 0; dev < 4; dev++ {
		if err := newCoord.Prepare(ctx, dev, 1, newSpec); err != nil {
			t.Fatal(err)
		}
	}
	newAlloc, err := newSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	copyMoves(t, ctx, newCoord, oldAlloc, newAlloc, -1)
	if err := newCoord.CutoverDevice(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for _, addrs := range [][]string{oldCoord.Addrs(), newCoord.Addrs()} {
		c, err := Dial(file, addrs)
		if err == nil {
			c.Close()
			t.Fatalf("dialed %d servers split between two epochs", len(addrs))
		}
		if !strings.Contains(err.Error(), "disagree on the epoch") {
			t.Fatalf("dial of %d servers after a partial cutover: %v", len(addrs), err)
		}
	}
}
