// This file simulates the multistage interconnection network of the
// machines the paper targets (BBN Butterfly-style multiprocessors,
// §5.2.1): M = 2^n nodes connected through n stages of 2x2 switches with
// destination-tag routing, one message per link per cycle, FIFO queueing
// at every link, store-and-forward.
//
// The simulator turns the paper's "symmetric network topology" assumption
// into something that can be checked: balanced per-node message loads
// (what FX declustering produces) traverse an all-to-all repartition
// faster than skewed loads (what Modulo produces), because a hot node is
// limited to injecting one message per cycle and its switch links
// saturate.

package analysis

import (
	"fmt"
	"math/rand"

	"fxdist/internal/bitsx"
)

// Network is an M-node butterfly MIN.
type Network struct {
	m      int
	stages int
}

// NewNetwork builds the network for m nodes (a power of two, at least 2).
func NewNetwork(m int) (*Network, error) {
	if !bitsx.IsPow2(m) || m < 2 {
		return nil, fmt.Errorf("analysis: node count %d is not a power of two >= 2", m)
	}
	return &Network{m: m, stages: bitsx.Log2(m)}, nil
}

// Stages returns log2(M).
func (nw *Network) Stages() int { return nw.stages }

// route returns the position after traversing stage s toward dst:
// destination-tag routing fixes bit s of the position to dst's bit s.
func (nw *Network) route(pos, s, dst int) int {
	bit := 1 << s
	return (pos &^ bit) | (dst & bit)
}

// Message is one unit of traffic.
type Message struct {
	Src, Dst int
}

// NetworkStats reports one network simulation run.
type NetworkStats struct {
	// Cycles is the number of cycles until the last delivery.
	Cycles int
	// Delivered is the number of messages delivered (always all of them).
	Delivered int
	// MaxQueue is the deepest link queue observed — a congestion measure.
	MaxQueue int
	// IdealCycles is a lower bound: the larger of the maximum per-source
	// injection count and the maximum per-destination delivery count,
	// plus pipeline latency.
	IdealCycles int
}

// Run simulates delivering the messages. Each node injects at most one
// message per cycle (in input order); each link forwards at most one
// message per cycle; messages advance at most one stage per cycle.
func (nw *Network) Run(msgs []Message) (NetworkStats, error) {
	for i, msg := range msgs {
		if msg.Src < 0 || msg.Src >= nw.m || msg.Dst < 0 || msg.Dst >= nw.m {
			return NetworkStats{}, fmt.Errorf("analysis: message %d endpoints (%d -> %d) outside [0,%d)", i, msg.Src, msg.Dst, nw.m)
		}
	}
	type flight struct {
		dst int
		pos int // output position of the stage the flight is queued at
	}
	// injection[src] is the FIFO of messages not yet injected.
	injection := make([][]flight, nw.m)
	srcMax, dstMax := make([]int, nw.m), make([]int, nw.m)
	for _, msg := range msgs {
		injection[msg.Src] = append(injection[msg.Src], flight{dst: msg.Dst, pos: msg.Src})
		srcMax[msg.Src]++
		dstMax[msg.Dst]++
	}
	// queues[s][p] is the FIFO of flights contending for the OUTPUT link
	// of stage s at position p — switch output-port contention is what
	// limits throughput, so queues key on the link a flight must cross,
	// and each link transmits one flight per cycle.
	queues := make([][][]flight, nw.stages)
	for s := range queues {
		queues[s] = make([][]flight, nw.m)
	}

	stats := NetworkStats{}
	remaining := len(msgs)
	for cycle := 1; remaining > 0; cycle++ {
		// Advance stages from last to first so a flight crosses at most
		// one link per cycle.
		for s := nw.stages - 1; s >= 0; s-- {
			for p := 0; p < nw.m; p++ {
				q := queues[s][p]
				if len(q) == 0 {
					continue
				}
				stats.MaxQueue = max(stats.MaxQueue, len(q))
				f := q[0]
				queues[s][p] = q[1:]
				if s == nw.stages-1 {
					// All destination bits fixed: f.pos == f.dst.
					stats.Delivered++
					remaining--
					stats.Cycles = cycle
				} else {
					f.pos = nw.route(f.pos, s+1, f.dst)
					queues[s+1][f.pos] = append(queues[s+1][f.pos], f)
				}
			}
		}
		// Inject one message per node per cycle, routed through stage 0's
		// switch to its first output link.
		for src := 0; src < nw.m; src++ {
			if len(injection[src]) == 0 {
				continue
			}
			f := injection[src][0]
			injection[src] = injection[src][1:]
			f.pos = nw.route(f.pos, 0, f.dst)
			queues[0][f.pos] = append(queues[0][f.pos], f)
		}
		if cycle > nw.stages+2*len(msgs)+4 {
			return NetworkStats{}, fmt.Errorf("analysis: simulation did not drain (bug)")
		}
	}
	maxSrc, maxDst := 0, 0
	for i := 0; i < nw.m; i++ {
		maxSrc = max(maxSrc, srcMax[i])
		maxDst = max(maxDst, dstMax[i])
	}
	stats.IdealCycles = max(maxSrc, maxDst) + nw.stages
	return stats, nil
}

// Repartition builds the all-to-all message list of a parallel operator
// (e.g. the Butterfly projection work the paper cites): node i holds
// loads[i] tuples, each rehashed to a pseudo-random destination, in node
// order. Deterministic for a seed.
func (nw *Network) Repartition(loads []int, seed int64) ([]Message, error) {
	if len(loads) != nw.m {
		return nil, fmt.Errorf("analysis: %d loads for %d nodes", len(loads), nw.m)
	}
	r := rand.New(rand.NewSource(seed))
	var msgs []Message
	for src, n := range loads {
		for i := 0; i < n; i++ {
			msgs = append(msgs, Message{Src: src, Dst: r.Intn(nw.m)})
		}
	}
	return msgs, nil
}
