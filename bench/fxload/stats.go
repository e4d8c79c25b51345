package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs, 0 for an empty slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p% of the
// samples at or below it. 0 for an empty slice.
func percentile(sorted []uint32, p float64) uint32 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quartiles mirrors Python's statistics.quantiles(vs, n=4) (the
// default "exclusive" method), because that is what the driver's
// acceptance check computes. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is (max-min)/median of vs, the five-run spread of the issue.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// segmentStats are one segment's numbers.
type segmentStats struct {
	opsPerSec  float64
	p50ms      float64
	p90ms      float64
	cpuMsPerOp float64
}

// statsOf sorts the segment's samples in place and summarises them.
func (s *segment) statsOf(seconds float64) segmentStats {
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	n := float64(len(s.lat))
	return segmentStats{
		opsPerSec:  n / seconds,
		p50ms:      float64(percentile(s.lat, 50)) / 1e6,
		p90ms:      float64(percentile(s.lat, 90)) / 1e6,
		cpuMsPerOp: ratio(float64(s.cpu.Nanoseconds()), n+float64(s.late)) / 1e6,
	}
}

// selfTimes subtracts each query's child-rung span from its parent-rung
// span, flooring at 0: rungs are timed in separate passes, so a noisy
// child pass can exceed its parent on a single query.
func selfTimes(parent, child []span) []float64 {
	out := make([]float64, len(parent))
	for i := range parent {
		d := parent[i].duration()
		if i < len(child) {
			d -= child[i].duration()
		}
		if d < 0 {
			d = 0
		}
		out[i] = float64(d)
	}
	return out
}
