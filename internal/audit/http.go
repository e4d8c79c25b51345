package audit

import (
	"fmt"
	"io"
	"time"
)

// WriteText renders an optimality report as a per-shape table (the
// /debug/optimality?format=text rendering).
func WriteText(w io.Writer, reps []BackendReport) {
	if len(reps) == 0 {
		fmt.Fprintln(w, "no retrievals audited yet")
		return
	}
	for _, rep := range reps {
		fmt.Fprintf(w, "backend %s\n", rep.Backend)
		fmt.Fprintf(w, "  %-12s %8s %6s %6s %8s %6s %6s %8s  %s\n",
			"shape", "queries", "viol", "maxdev", "meandev", "bound", "worst", "burn", "verdict")
		for _, s := range rep.Shapes {
			verdict := "strict optimal"
			if s.Violations > 0 {
				verdict = fmt.Sprintf("VIOLATED (device %d: bound %d exceeded by %d)",
					s.WorstDevice, s.Bound, s.MaxDeviation)
			}
			if s.Mismatches > 0 {
				verdict += fmt.Sprintf("; MISPLACED (%d queries, latest on device %d)", s.Mismatches, s.MismatchDevice)
			}
			burn := "-"
			if s.SLOTarget > 0 {
				burn = fmt.Sprintf("%.2f", s.BurnRate)
			}
			fmt.Fprintf(w, "  %-12s %8d %6d %6d %8.3f %6d %6d %8s  %s\n",
				s.Shape, s.Queries, s.Violations, s.MaxDeviation, s.MeanDeviation,
				s.Bound, s.WorstDevice, burn, verdict)
			if s.SLOTarget > 0 {
				fmt.Fprintf(w, "  %-12s slo: target=%s goal=%.4f good=%d bad=%d\n",
					"", time.Duration(s.SLOTarget), s.SLOGoal, s.Good, s.Bad)
			}
		}
	}
}
