package analysis

import (
	"testing"

	"fxdist/internal/convolve"
	"fxdist/internal/decluster"
	"fxdist/internal/field"
	"fxdist/internal/query"
)

func TestNewValidation(t *testing.T) {
	for _, m := range []int{0, 1, 3, 12} {
		if _, err := NewNetwork(m); err == nil {
			t.Errorf("node count %d accepted", m)
		}
	}
	nw, err := NewNetwork(8)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Nodes() != 8 || nw.Stages() != 3 {
		t.Errorf("Nodes=%d Stages=%d", nw.Nodes(), nw.Stages())
	}
}

// Destination-tag routing: after all stages the position equals the
// destination, for every src/dst pair.
func TestRoutingReachesDestination(t *testing.T) {
	nw, _ := NewNetwork(16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			pos := src
			for s := 0; s < nw.Stages(); s++ {
				pos = nw.route(pos, s, dst)
			}
			if pos != dst {
				t.Fatalf("src %d dst %d: landed at %d", src, dst, pos)
			}
		}
	}
}

// One message: latency = injection cycle + one cycle per stage.
func TestSingleMessageLatency(t *testing.T) {
	nw, _ := NewNetwork(8)
	stats, err := nw.Run([]Message{{Src: 5, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 1+nw.Stages() {
		t.Errorf("cycles = %d, want %d", stats.Cycles, 1+nw.Stages())
	}
	if stats.Delivered != 1 {
		t.Errorf("delivered = %d", stats.Delivered)
	}
}

func TestNetworkRunValidation(t *testing.T) {
	nw, _ := NewNetwork(4)
	if _, err := nw.Run([]Message{{Src: -1, Dst: 0}}); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := nw.Run([]Message{{Src: 0, Dst: 4}}); err == nil {
		t.Error("out-of-range dst accepted")
	}
	stats, err := nw.Run(nil)
	if err != nil || stats.Cycles != 0 || stats.Delivered != 0 {
		t.Errorf("empty run = %+v, %v", stats, err)
	}
}

// Gather to one node serialises on the final link: cycles ~ total
// messages (+ pipeline latency), regardless of distribution.
func TestGatherSerialisesAtSink(t *testing.T) {
	nw, _ := NewNetwork(8)
	loads := []int{5, 5, 5, 5, 5, 5, 5, 5}
	msgs, err := nw.Gather(loads, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := nw.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	total := 40
	if stats.Delivered != total {
		t.Fatalf("delivered %d", stats.Delivered)
	}
	if stats.Cycles < total {
		t.Errorf("cycles %d below sink serialisation bound %d", stats.Cycles, total)
	}
	if stats.Cycles > total+nw.Stages()+2 {
		t.Errorf("cycles %d far above bound %d", stats.Cycles, total+nw.Stages())
	}
}

func TestGatherValidation(t *testing.T) {
	nw, _ := NewNetwork(4)
	if _, err := nw.Gather([]int{1, 2}, 0); err == nil {
		t.Error("wrong load count accepted")
	}
	if _, err := nw.Gather([]int{1, 1, 1, 1}, 7); err == nil {
		t.Error("out-of-range front end accepted")
	}
}

// All-to-all repartition: balanced source loads finish no later than a
// skewed distribution of the same total (the declustering connection).
func TestBalancedRepartitionBeatsSkewed(t *testing.T) {
	nw, _ := NewNetwork(16)
	balanced := make([]int, 16)
	skewed := make([]int, 16)
	for i := range balanced {
		balanced[i] = 32
	}
	skewed[3] = 16 * 32 // same total, one hot node
	bMsgs, err := nw.Repartition(balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	sMsgs, err := nw.Repartition(skewed, 1)
	if err != nil {
		t.Fatal(err)
	}
	bStats, err := nw.Run(bMsgs)
	if err != nil {
		t.Fatal(err)
	}
	sStats, err := nw.Run(sMsgs)
	if err != nil {
		t.Fatal(err)
	}
	if bStats.Delivered != sStats.Delivered {
		t.Fatalf("delivered differ: %d vs %d", bStats.Delivered, sStats.Delivered)
	}
	// The hot node injects one message per cycle: >= 512 cycles. Balanced
	// sources pipeline: strictly faster.
	if sStats.Cycles < 16*32 {
		t.Errorf("skewed cycles %d below injection bound %d", sStats.Cycles, 16*32)
	}
	if bStats.Cycles >= sStats.Cycles {
		t.Errorf("balanced (%d cycles) not faster than skewed (%d)", bStats.Cycles, sStats.Cycles)
	}
	if bStats.IdealCycles > bStats.Cycles {
		t.Errorf("ideal bound %d exceeds actual %d", bStats.IdealCycles, bStats.Cycles)
	}
}

func TestRepartitionValidation(t *testing.T) {
	nw, _ := NewNetwork(4)
	if _, err := nw.Repartition([]int{1}, 1); err == nil {
		t.Error("wrong load count accepted")
	}
	// Determinism.
	a, _ := nw.Repartition([]int{2, 2, 2, 2}, 9)
	b, _ := nw.Repartition([]int{2, 2, 2, 2}, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repartition not deterministic")
		}
	}
}

// End-to-end declustering connection: FX's balanced query loads repartition
// faster through the network than Modulo's skewed loads for the same
// query on the same grid.
func TestFXLoadsRepartitionFasterThanModulo(t *testing.T) {
	fs := decluster.MustFileSystem([]int{8, 8}, 16)
	fx := decluster.MustFX(fs, field.WithKinds([]field.Kind{field.I, field.IU1}))
	md := decluster.NewModulo(fs)
	q := query.All(2)
	nw, _ := NewNetwork(16)

	run := func(a decluster.GroupAllocator) NetworkStats {
		loads := convolve.Loads(a, q)
		msgs, err := nw.Repartition(loads, 3)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := nw.Run(msgs)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	fxStats, mdStats := run(fx), run(md)
	if fxStats.Cycles > mdStats.Cycles {
		t.Errorf("FX repartition %d cycles, Modulo %d — balanced should not be slower",
			fxStats.Cycles, mdStats.Cycles)
	}
}
