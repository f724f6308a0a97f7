package main

import (
	"fmt"
	"math"
	"os"
)

// runAA runs every workload twice, each time on fresh state (new clusters,
// new data directories), and prints both values of each end-to-end metric,
// their relative difference and the metric's bound. It reports whether both
// sets were correct and every difference, in either direction, stayed
// within its bound.
func runAA(o options) bool {
	o.trace = false
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = make(map[string]*report)
		for _, s := range specs {
			o.workload = s.name
			rep, err := run(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return false
			}
			sets[i][s.name] = rep
		}
	}
	ok := true
	fmt.Printf("%-15s %-14s %12s %12s %8s %7s\n", "workload", "metric", "run A", "run B", "B worse", "bound")
	for _, s := range specs {
		ra, rb := sets[0][s.name], sets[1][s.name]
		if !ra.Result.Correct || !rb.Result.Correct {
			fmt.Printf("%-15s results incorrect: %s%s\n", s.name, ra.FirstError, rb.FirstError)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := ra.Result.Metrics[d.Name].Value, rb.Result.Metrics[d.Name].Value
			worse := (vb - va) / va // how much worse B is than A, as a share of A
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > d.Bound {
				verdict = "  OUT OF BOUNDS"
				ok = false
			}
			fmt.Printf("%-15s %-14s %12.3f %12.3f %+7.1f%% %6.0f%%%s\n", s.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}
