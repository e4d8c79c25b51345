package netdist

import (
	"context"
	"encoding/json"
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
// targets for devices oldM..newM-1, and dials coordinators at both
// epochs. The returned allocator is the one the old fleet was deployed
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
		srv, err := NewServer(dev, newSpec, map[int][]mkhash.Record{})
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		srv.SetEpoch(1)
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
	// Dialed before Prepare, as the rescale does: no old server serves
	// epoch 1 yet, so the spec is handed over, not described.
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
		recs, err := coord.FetchBucket(ctx, from, idx)
		if err != nil {
			t.Fatalf("fetch bucket %d from device %d: %v", idx, from, err)
		}
		if err := coord.InstallBucket(ctx, to, idx, recs); err != nil {
			t.Fatalf("install bucket %d on device %d: %v", idx, to, err)
		}
		moved++
	})
	return moved
}

// TestRescaleProtocolGrow drives the raw control ops through a 2→4 grow
// and checks both epochs answer correctly before and after cutover.
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

	for dev := 0; dev < 2; dev++ {
		if err := newCoord.Prepare(ctx, dev, newSpec); err != nil {
			t.Fatalf("prepare %d: %v", dev, err)
		}
		// Idempotent re-prepare (the crash-resume path).
		if err := newCoord.Prepare(ctx, dev, newSpec); err != nil {
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
	for dev := 0; dev < 2; dev++ {
		if err := newCoord.Prepare(ctx, dev, newSpec); err != nil {
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
		if err := newCoord.AbortRescale(ctx, dev); err != nil {
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
// others didn't, and a rebuilt driver re-broadcasts Prepare to the
// survivors followed by Cutover to the union. Prepare on an
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
	for dev := 0; dev < 2; dev++ {
		if err := newCoord.Prepare(ctx, dev, newSpec); err != nil {
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
		for dev := 0; dev < 2; dev++ {
			if err := newCoord.Prepare(ctx, dev, newSpec); err != nil {
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

// TestRescaleControlValidation exercises the server-side rejection
// paths over the wire.
func TestRescaleControlValidation(t *testing.T) {
	file := buildFile(t, 100)
	ctx := context.Background()
	_, newSpec, _, newCoord, cleanup := deployRescaleFixture(t, file, 2, 4)
	defer cleanup()

	if err := newCoord.Prepare(ctx, 0, newSpec); err != nil {
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
	if err := newCoord.InstallBucket(ctx, 0, foreign, nil); err == nil {
		t.Fatal("install accepted on a non-owner")
	}

	// Buckets outside the grid.
	if err := newCoord.InstallBucket(ctx, 0, fs.NumBuckets()+10, nil); err == nil {
		t.Fatal("install accepted an out-of-grid bucket")
	}
	if _, err := newCoord.FetchBucket(ctx, 0, -1); err == nil {
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
	if err := newCoord.InstallBucket(ctx, 0, own, []mkhash.Record{{"only-one-field"}}); err == nil {
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
	if err := newCoord.Prepare(ctx, 0, other); err == nil {
		t.Fatal("conflicting prepare accepted")
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
