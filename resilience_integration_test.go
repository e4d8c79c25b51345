package fxdist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"fxdist"
)

// chaosServers starts one replicated device server per device on its own
// loopback listener (each holding its primary partition plus its ring
// predecessor's backup), so individual servers can be killed and
// restarted mid-test. Returns the servers, their addresses, the
// partitions, the allocator spec, and a stop function.
func chaosServers(t *testing.T, file *fxdist.File, fx fxdist.GroupAllocator) ([]*fxdist.DeviceServer, []string, []fxdist.Partition, fxdist.AllocatorSpec, func()) {
	t.Helper()
	spec, err := fxdist.DescribeAllocator(fx)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fxdist.PartitionFile(file, fx)
	if err != nil {
		t.Fatal(err)
	}
	m := len(parts)
	servers := make([]*fxdist.DeviceServer, m)
	addrs := make([]string, m)
	for dev := 0; dev < m; dev++ {
		prev := (dev - 1 + m) % m
		srv, err := fxdist.NewReplicatedDeviceServer(dev, spec, parts[dev], parts[prev])
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[dev] = srv
		addrs[dev] = l.Addr().String()
		go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
	}
	return servers, addrs, parts, spec, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// sortedRecords renders a record set in a canonical order for
// byte-identical comparison.
func sortedRecords(recs []fxdist.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprint([]string(r))
	}
	sort.Strings(out)
	return out
}

// netdistReport is a distributed cluster's retry controller report.
func netdistReport(t *testing.T, c *fxdist.Cluster) fxdist.BackendResilience {
	t.Helper()
	rep := c.Resilience()
	if len(rep.Retry) != 1 || rep.Retry[0].Backend != "netdist" {
		t.Fatalf("cluster resilience %+v, want its one netdist retry controller", rep)
	}
	return rep.Retry[0]
}

// TestChaosDistributedRetrieval runs the seeded chaos schedule from the
// acceptance criteria against a replicated 4-server deployment: server 1
// is dead, server 3 answers 10x slow, server 2 flaps every other
// request. With retries, breakers, failover and hedging on, every
// retrieval must still return byte-identical records to the in-process
// reference search, and the breaker/hedge activity must be observable
// on /debug/resilience.
func TestChaosDistributedRetrieval(t *testing.T) {
	file := buildTestFile(t)
	fs, err := file.FileSystem(4)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fxdist.NewFX(fs)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs, _, _, stop := chaosServers(t, file, fx)
	defer stop()

	// The chaos schedule: one dead server (killed right after dialing),
	// one slow (coordinator-side injected latency ~10x a loopback round
	// trip), one flapping.
	in := fxdist.NewFaultInjector("chaos-netdist", 42, map[int]fxdist.FaultSchedule{
		3: {Latency: 40 * time.Millisecond},
		2: {FlapEvery: 1},
	})

	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithDialTimeout(5*time.Second),
		fxdist.WithRetryBudget(4, time.Millisecond, 10*time.Millisecond),
		fxdist.WithCircuitBreaker(3, time.Hour),
		fxdist.WithHedging(time.Millisecond),
		fxdist.WithFaultInjector(in),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	servers[1].Close()

	// Warm up past the hedger's observation gate, checking byte-identical
	// results the whole way: the dead server fails over to its ring
	// successor's backup, the flapping server recovers on retry, the slow
	// one is merely slow (and eventually hedged).
	queries := []map[string]string{
		{"b": "b-3"}, {"b": "b-5"}, {"a": "a-7"}, {},
	}
	for round := 0; round < 12; round++ {
		spec := queries[round%len(queries)]
		pm, err := file.Spec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := file.Search(pm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Retrieve(pm)
		if err != nil {
			t.Fatalf("round %d %v: %v", round, spec, err)
		}
		ws, gs := sortedRecords(want), sortedRecords(got.Records)
		if fmt.Sprint(ws) != fmt.Sprint(gs) {
			t.Fatalf("round %d %v: %d records != reference %d", round, spec, len(gs), len(ws))
		}
	}

	rep := netdistReport(t, coord)
	if rep.Retries == 0 {
		t.Error("flapping server triggered no retries")
	}
	if rep.Transitions["open"] == 0 {
		t.Error("dead server opened no breaker")
	}
	open := false
	for _, b := range rep.Breakers {
		if b.Device == 1 && b.State == "open" {
			open = true
		}
	}
	if !open {
		t.Errorf("device 1 breaker not open: %+v", rep.Breakers)
	}
	if rep.Hedges == 0 || rep.HedgeWins == 0 {
		t.Errorf("slow server hedging: hedges=%d wins=%d, want both > 0", rep.Hedges, rep.HedgeWins)
	}

	// CI artifact: the full /debug/resilience payload.
	if path := os.Getenv("RESILIENCE_JSON"); path != "" {
		blob, err := json.MarshalIndent(coord.Resilience(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosHealthProbeRecovery kills a server, lets the breaker open,
// restarts the server on the same address, and waits for the health
// prober to redial it and close the breaker — recovery with no live
// query ever risked on the restarting server.
func TestChaosHealthProbeRecovery(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	servers, addrs, parts, spec, stop := chaosServers(t, file, fx)
	defer stop()

	coord, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs},
		fxdist.WithDialTimeout(2*time.Second),
		fxdist.WithRetryBudget(2, time.Millisecond, 5*time.Millisecond),
		fxdist.WithCircuitBreaker(1, 50*time.Millisecond),
		fxdist.WithStatsPull(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	pm, _ := file.Spec(map[string]string{"b": "b-2"})
	want, _ := file.Search(pm)

	servers[2].Close()
	// Retrievals survive through failover while the breaker opens.
	for i := 0; i < 3; i++ {
		got, err := coord.Retrieve(pm)
		if err != nil {
			t.Fatalf("retrieve with dead server: %v", err)
		}
		if len(got.Records) != len(want) {
			t.Fatalf("degraded retrieve %d records, want %d", len(got.Records), len(want))
		}
	}
	rep := netdistReport(t, coord)
	opened := false
	for _, b := range rep.Breakers {
		if b.Device == 2 && b.State != "closed" {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("device 2 breaker still closed after server death: %+v", rep.Breakers)
	}

	// Restart the server on the same address; the prober must redial,
	// ping, and close the breaker on its own.
	restartServer(t, servers, addrs, parts, spec, 2)

	deadline := time.Now().Add(10 * time.Second)
	for {
		closed := false
		for _, b := range netdistReport(t, coord).Breakers {
			if b.Device == 2 && b.State == "closed" {
				closed = true
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never closed device 2's breaker: %+v", netdistReport(t, coord).Breakers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	got, err := coord.Retrieve(pm)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sortedRecords(got.Records)) != fmt.Sprint(sortedRecords(want)) {
		t.Errorf("post-recovery retrieve differs from reference")
	}
}

// restartServer brings device dev's replicated server back on its old
// address; the stop function of chaosServers closes it.
func restartServer(t *testing.T, servers []*fxdist.DeviceServer, addrs []string, parts []fxdist.Partition, spec fxdist.AllocatorSpec, dev int) {
	t.Helper()
	m := len(parts)
	srv, err := fxdist.NewReplicatedDeviceServer(dev, spec, parts[dev], parts[(dev-1+m)%m])
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addrs[dev])
	if err != nil {
		t.Fatal(err)
	}
	servers[dev] = srv
	go srv.Serve(l) //nolint:errcheck // ends when srv.Close closes l
}

// TestRedialAfterServerRestart: a cluster opened with Addrs alone — no
// stats pull, no failover, as fxgate and fxnode dial — loses device
// 2's connection when its server restarts. The next request redials it,
// so the first retrievals after the restart answer in full; they race,
// so all but one redial lose the swap and close their own connection.
func TestRedialAfterServerRestart(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	servers, addrs, parts, spec, stop := chaosServers(t, file, fx)
	defer stop()

	c, err := fxdist.Open(fxdist.Config{File: file, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pm, _ := file.Spec(nil) // all-free: every device is asked
	want, _ := file.Search(pm)

	servers[2].Close()
	// A stats pull fails once the coordinator has seen the connection
	// drop; unlike a failed retrieval it pins no error trace.
	if err := c.Coordinator().PullStats(context.Background()); err == nil {
		t.Fatal("stats pull with server 2 down succeeded")
	}
	restartServer(t, servers, addrs, parts, spec, 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Retrieve(pm)
			if err != nil {
				t.Errorf("retrieve after the restart: %v", err)
			} else if fmt.Sprint(sortedRecords(got.Records)) != fmt.Sprint(sortedRecords(want)) {
				t.Errorf("retrieve after the restart: %d records, want %d", len(got.Records), len(want))
			}
		}()
	}
	wg.Wait()
}

// TestChaosMemoryPartialResults partitions one device of the in-memory
// backend and checks graceful degradation end to end: the retrieval
// returns the surviving devices' records plus a PartialResult whose
// manifest names the dead device, then clearing the fault and letting
// the breaker's cooldown lapse restores full byte-identical results.
func TestChaosMemoryPartialResults(t *testing.T) {
	file := buildTestFile(t)
	fs, _ := file.FileSystem(4)
	fx, _ := fxdist.NewFX(fs)
	in := fxdist.NewFaultInjector("chaos-memory", 7, map[int]fxdist.FaultSchedule{
		0: {Partition: true},
	})
	c, err := fxdist.Open(fxdist.Config{File: file, Allocator: fx},
		fxdist.WithRetryBudget(2, time.Millisecond, 5*time.Millisecond),
		fxdist.WithCircuitBreaker(2, 100*time.Millisecond),
		fxdist.WithPartialResults(),
		fxdist.WithFaultInjector(in),
	)
	if err != nil {
		t.Fatal(err)
	}

	pm, _ := file.Spec(nil) // all-free: every device load-bearing
	want, _ := file.Search(pm)

	// Expected survivors: every matching record not placed on device 0.
	var survivors []fxdist.Record
	lost := 0
	for _, r := range want {
		coords, err := file.BucketOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if fx.Device(coords) == 0 {
			lost++
		} else {
			survivors = append(survivors, r)
		}
	}
	if lost == 0 {
		t.Fatal("test premise broken: no records on device 0")
	}

	res, err := c.Retrieve(pm)
	if err == nil {
		t.Fatal("partitioned device produced a full result")
	}
	pe, ok := fxdist.AsPartial(err)
	if !ok {
		t.Fatalf("error is not a PartialResult: %v", err)
	}
	if len(pe.Failed) != 1 || !errors.Is(pe.Failed[0], fxdist.ErrFaultInjected) {
		t.Fatalf("manifest = %v, want injected fault on device 0", pe.Failed)
	}
	if pe.Coverage <= 0 || pe.Coverage >= 1 {
		t.Errorf("coverage = %v, want in (0,1)", pe.Coverage)
	}
	if fmt.Sprint(sortedRecords(res.Records)) != fmt.Sprint(sortedRecords(survivors)) {
		t.Errorf("degraded result %d records, want the %d survivor records", len(res.Records), len(survivors))
	}

	// A couple more failures open device 0's breaker.
	c.Retrieve(pm) //nolint:errcheck
	memOpen := func() string {
		for _, r := range c.Resilience().Retry {
			if r.Backend == "memory" {
				for _, b := range r.Breakers {
					if b.Device == 0 {
						return b.State
					}
				}
			}
		}
		return "absent"
	}
	if st := memOpen(); st != "open" {
		t.Fatalf("device 0 breaker = %q, want open", st)
	}

	// Heal the device; after the cooldown the half-open probe readmits it
	// and full results come back.
	in.Clear(0)
	time.Sleep(150 * time.Millisecond)
	got, err := c.Retrieve(pm)
	if err != nil {
		t.Fatalf("healed retrieve still degraded: %v", err)
	}
	if fmt.Sprint(sortedRecords(got.Records)) != fmt.Sprint(sortedRecords(want)) {
		t.Errorf("healed result differs from reference")
	}
	if st := memOpen(); st != "closed" {
		t.Errorf("device 0 breaker = %q after recovery, want closed", st)
	}
}
