package netdist

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"fxdist/internal/decluster"
	"fxdist/internal/mkhash"
	"fxdist/internal/storage"
)

// Healthy replicated deployment answers exactly like the local search.
func TestReplicatedDeployHealthy(t *testing.T) {
	file := buildFile(t, 400)
	fs, _ := file.FileSystem(8)
	fx := decluster.MustFX(fs)
	addrs, stop, err := DeployReplicated(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	coord, err := Dial(file, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	pm, _ := file.Spec(map[string]string{"supplier": "sup4"})
	want, _ := file.Search(pm)
	got, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(got.Records), len(want))
	}

	// The three holders of device d's partition — server d's serving view,
	// server d+1's backup view, the in-memory cluster's device d — run one
	// record loop: same buckets, same records scanned, same hits in the
	// same order (the executor merges in device order, so the cluster's
	// records are the devices' hit frames end to end).
	mem, err := storage.NewCluster(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	for _, pairs := range []map[string]string{
		{"supplier": "sup4"}, {"warehouse": "wh3"}, {"part": "part7", "warehouse": "wh2"},
		{"part": "part0", "supplier": "sup0", "warehouse": "wh0"}, {"supplier": "no-such"}, {},
	} {
		pm, _ := file.Spec(pairs)
		q, _ := file.BucketQuery(pm)
		ref, err := mem.Retrieve(pm)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for d := 0; d < fs.M; d++ {
			own, _, _, _, err := coord.conns[d].roundTrip(context.Background(), NewRequest(q.Spec, pm), 0)
			if err != nil || own.Err != "" {
				t.Fatalf("%v: server %d as itself: %v %s", pairs, d, err, own.Err)
			}
			asReq := NewRequest(q.Spec, pm)
			asReq.AsDevice = d
			as, _, _, _, err := coord.conns[(d+1)%fs.M].roundTrip(context.Background(), asReq, 0)
			if err != nil || as.Err != "" {
				t.Fatalf("%v: server %d as device %d: %v %s", pairs, (d+1)%fs.M, d, err, as.Err)
			}
			if own.Buckets != ref.DeviceBuckets[d] || as.Buckets != own.Buckets ||
				own.Scanned != ref.DeviceRecords[d] || as.Scanned != own.Scanned {
				t.Errorf("%v device %d: buckets/scanned own %d/%d, backup %d/%d, cluster %d/%d", pairs, d,
					own.Buckets, own.Scanned, as.Buckets, as.Scanned, ref.DeviceBuckets[d], ref.DeviceRecords[d])
			}
			if off+len(own.Records) > len(ref.Records) ||
				!reflect.DeepEqual(own.Records, as.Records) ||
				(len(own.Records) > 0 && !reflect.DeepEqual(own.Records, ref.Records[off:off+len(own.Records)])) {
				t.Fatalf("%v device %d: the three views disagree on the records or their order", pairs, d)
			}
			off += len(own.Records)
		}
		if off != len(ref.Records) {
			t.Errorf("%v: servers returned %d records, cluster %d", pairs, off, len(ref.Records))
		}
	}
}

// Killing one server: a coordinator dialed over a replicated fleet still
// returns the complete answer via the successor's backup partition — one
// query at a time and batched, the two share one policy chain.
// TestMixedFleetDoesNotFailOver is the other half: a fleet with one
// plain server fails, naming the device.
func TestFailoverSurvivesOneServerDeath(t *testing.T) {
	file := buildFile(t, 400)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)

	// Deploy servers individually so one can be killed.
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*Server, 4)
	addrs := make([]string, 4)
	for dev := 0; dev < 4; dev++ {
		prev := (dev + 3) % 4
		srv, err := NewReplicatedServer(dev, spec, parts[dev], parts[prev])
		if err != nil {
			t.Fatal(err)
		}
		l, err := newLoopbackListener(t)
		if err != nil {
			t.Fatal(err)
		}
		servers[dev] = srv
		addrs[dev] = l.Addr().String()
		go srv.Serve(l) //nolint:errcheck
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	coord, err := Dial(file, addrs, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var pms []mkhash.PartialMatch
	var wants [][]string
	for _, pairs := range []map[string]string{{"warehouse": "wh3"}, {"supplier": "sup4"}, {}} {
		pm, _ := file.Spec(pairs)
		pms = append(pms, pm)
		wants = append(wants, recordKeys(mustSearch(t, file, pm)))
	}
	pm, want := pms[0], wants[0]

	// Healthy failover path returns everything.
	got, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if g := recordKeys(got.Records); !equalKeys(g, want) {
		t.Fatal("healthy failover answer differs from reference")
	}

	// Kill device 2's server.
	servers[2].Close()
	got, err = coord.Retrieve(pm)
	if err != nil {
		t.Fatalf("failover retrieve failed: %v", err)
	}
	if g := recordKeys(got.Records); !equalKeys(g, want) {
		t.Fatal("failover answer differs from reference after server death")
	}
	// The dead device's buckets are accounted to it (served by backup).
	if got.DeviceBuckets[2] == 0 {
		t.Log("note: device 2 had no qualified buckets for this query")
	}

	// A fully specified query whose one bucket the dead device owns goes
	// to that device alone: failover must reroute it (to server 3, as
	// device 2).
	rerouted := coord.dm[2].failovers.Value()
	onDead := exactOn(t, file, fx, 2)
	got, err = coord.Retrieve(onDead)
	if err != nil {
		t.Fatalf("query owned by the dead device: %v", err)
	}
	if g := recordKeys(got.Records); len(g) == 0 || !equalKeys(g, recordKeys(mustSearch(t, file, onDead))) {
		t.Fatal("rerouted answer differs from reference")
	}
	if b := got.DeviceBuckets; b[0]+b[1]+b[3] != 0 || b[2] != 1 {
		t.Errorf("device buckets %v, want the one bucket on device 2", b)
	}
	if n := coord.dm[2].failovers.Value() - rerouted; n != 1 {
		t.Errorf("%d failovers for device 2, want 1", n)
	}

	// The batch path fails over too: it is the same executor.
	batch, err := coord.RetrieveBatch(context.Background(), pms)
	if err != nil {
		t.Fatalf("failover batch failed: %v", err)
	}
	for i, res := range batch {
		if g := recordKeys(res.Records); !equalKeys(g, wants[i]) {
			t.Errorf("failover batch query %d differs from reference", i)
		}
	}
}

// exactOn is a fully specified query whose one bucket device dev owns.
func exactOn(t *testing.T, file *mkhash.File, alloc decluster.Allocator, dev int) mkhash.PartialMatch {
	t.Helper()
	var pm mkhash.PartialMatch
	file.EachBucket(func(coords []int, records []mkhash.Record) {
		if pm == nil && alloc.Device(coords) == dev {
			r := slices.Clone(records[0])
			pm = mkhash.PartialMatch{&r[0], &r[1], &r[2]}
		}
	})
	if pm == nil {
		t.Fatalf("no record on device %d", dev)
	}
	return pm
}

// A fleet fails over only when every server holds its ring predecessor's
// backup. Here server 2 holds device 1's, but server 3 is plain: with
// server 1 dead a retrieval fails naming device 1, one and batched,
// under the plain span name, with no reroute counted; a query device 0
// owns alone never touches the dead server.
func TestMixedFleetDoesNotFailOver(t *testing.T) {
	file := buildFile(t, 400)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)
	spec, err := decluster.SpecOf(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := storage.Split(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*Server, 4)
	addrs := make([]string, 4)
	for dev := 0; dev < 4; dev++ {
		var srv *Server
		if dev == 3 {
			srv, err = NewServer(dev, spec, parts[dev])
		} else {
			srv, err = NewReplicatedServer(dev, spec, parts[dev], parts[(dev+3)%4])
		}
		if err != nil {
			t.Fatal(err)
		}
		l, err := newLoopbackListener(t)
		if err != nil {
			t.Fatal(err)
		}
		servers[dev] = srv
		addrs[dev] = l.Addr().String()
		go srv.Serve(l) //nolint:errcheck
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	coord, err := Dial(file, addrs, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	servers[1].Close()
	var derr *DeviceError
	onDead := exactOn(t, file, fx, 1)
	res, err := coord.Retrieve(onDead)
	if !errors.As(err, &derr) || derr.Device != 1 {
		t.Errorf("query owned by the dead device: err = %v, want a DeviceError for device 1", err)
	}
	if spans := coord.in.Tracer.Recent(1); len(spans) != 1 || spans[0].Name != "netdist.retrieve" {
		t.Errorf("retrieval spans %+v, want one netdist.retrieve", spans)
	}
	if _, err := coord.RetrieveBatch(context.Background(), []mkhash.PartialMatch{onDead}); !errors.As(err, &derr) || derr.Device != 1 {
		t.Errorf("batch after server death: err = %v, want a DeviceError for device 1", err)
	}
	if n := coord.dm[1].failovers.Value(); n != 0 {
		t.Errorf("%d failovers for device 1, want 0", n)
	}
	if res, err = coord.Retrieve(exactOn(t, file, fx, 0)); err != nil || len(res.Records) == 0 {
		t.Errorf("query owned by device 0 alone: %d records, %v", len(res.Records), err)
	}
}

// Backup partition validation: handing the wrong partition as backup must
// be rejected.
func TestNewReplicatedServerValidation(t *testing.T) {
	file := buildFile(t, 100)
	fs, _ := file.FileSystem(4)
	fx := decluster.MustFX(fs)
	spec, _ := decluster.SpecOf(fx)
	parts, _ := storage.Split(file, fx)
	// Device 1's backup must be device 0's partition, not device 2's.
	if parts[2].Buckets() == 0 {
		t.Skip("device 2 holds no buckets")
	}
	if _, err := NewReplicatedServer(1, spec, parts[1], parts[2]); err == nil {
		t.Error("wrong backup partition accepted")
	}
	if _, err := NewReplicatedServer(1, spec, parts[1], parts[0]); err != nil {
		t.Errorf("correct backup partition rejected: %v", err)
	}
}

// A plain (non-replicated) server rejects AsDevice requests.
func TestPlainServerRejectsAsDevice(t *testing.T) {
	coord, cleanup := deploy(t, buildFile(t, 50), 4)
	defer cleanup()
	pm := make([]*string, 3)
	q, _ := coord.file.BucketQuery(pm)
	req := NewRequest(q.Spec, pm)
	req.AsDevice = 0 // ask server 1 to impersonate device 0
	resp, _, _, _, err := coord.conns[1].roundTrip(context.Background(), req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Error("plain server accepted an AsDevice request")
	}
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
