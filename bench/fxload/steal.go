package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Stolen time. The box this benchmark runs on is a small virtual
// machine on a shared host, and the hypervisor gives anything from
// nothing to over half of the CPU time the guest wants to other guests,
// for seconds or minutes at a stretch (/proc/stat's steal column). A
// set-up is a second of mostly single-threaded work, so its wall-clock
// time moves by that share whole: as measured, two interleaved sets of
// runs of the same code differed by 30% in their median set-up time and
// single runs by 160% (bench/AA.md, repetition 0). setup_s is a metric
// the benchmark must gate, so the stolen share — measured, not
// estimated — is taken out of it. Nothing else is corrected.

// procStat is the machine-wide "cpu" line of /proc/stat, in clock
// ticks: time the CPUs wanted to run something (busy plus stolen), and
// the part of it the hypervisor gave to another guest instead.
type procStat struct {
	wanted, stolen int64
}

// readProcStat reads the first line of /proc/stat:
//
//	cpu user nice system idle iowait irq softirq steal guest guest_nice
//
// On a system without it (or without a steal column) it returns zeros:
// no time counts as stolen.
func readProcStat() (procStat, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		if os.IsNotExist(err) {
			return procStat{}, nil
		}
		return procStat{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return parseProcStat(line)
}

func parseProcStat(line string) (procStat, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return procStat{}, nil
	}
	var st procStat
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return procStat{}, fmt.Errorf("/proc/stat: %w", err)
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			st.stolen = v
			st.wanted += v
		default:
			st.wanted += v
		}
	}
	return st, nil
}

// stolenSince is the stolen share of the wanted time since before.
func (s procStat) stolenSince(before procStat) float64 {
	return ratio(float64(s.stolen-before.stolen), float64(s.wanted-before.wanted))
}

// unstolen runs fn and returns how long it took, not counting the share
// of that time the hypervisor gave the CPU to another guest.
func unstolen(fn func() error) (float64, error) {
	stat0, err := readProcStat()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	elapsed := time.Since(t0).Seconds()
	stat1, err := readProcStat()
	return elapsed * (1 - stat1.stolenSince(stat0)), err
}
