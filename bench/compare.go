package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of a (workload, metric) comparison.
const (
	improved   = "improved"
	same       = "same"
	regressed  = "regressed"
	unresolved = "unresolved"
	noBound    = "-"
)

// judge compares the runs of side B against side A for one metric. Runs
// pair up by position (the i-th of A with the i-th of B), which is how
// alternating A/B runs are recorded.
//
//   - regressed: B's median is worse than A's by more than bound;
//   - improved: at least ten pairs, B wins at least nine tenths of them,
//     and the medians differ by more than A's interquartile range;
//   - unresolved: a side's interquartile range, relative to its median,
//     exceeds the bound, unless every run of B reads better than every run
//     of A;
//   - same: otherwise.
func judge(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	gain := sign * (mb - ma) / math.Abs(ma)
	if gain < -bound {
		return regressed
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := range pairs {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	if pairs >= 10 && wins*10 >= 9*pairs && gain > 0 && math.Abs(mb-ma) > q3a-q1a {
		return improved
	}
	spread := max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	if spread > bound && !allBetter(a, b, sign) {
		return unresolved
	}
	return same
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareMain prints, for every workload and metric both results files
// hold, each side's median and quartiles and a verdict under the bounds of
// BENCHMARK.json. It exits 1 when any metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flagSet("compare")
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "benchmark definition holding the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s (%s)\nB: %s (%s)\n", fs.Arg(0), describe(a), fs.Arg(1), describe(b))
	fmt.Fprintf(stdout, "%-14s %-33s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "change", "verdict")
	code := 0
	for _, wl := range spec.Workloads {
		for _, group := range []struct {
			traced  bool
			metrics []MetricSpec
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			for _, m := range group.metrics {
				av := values(a, wl.Name, group.traced, m.Name)
				bv := values(b, wl.Name, group.traced, m.Name)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				verdict := noBound
				if m.Bound > 0 {
					verdict = judge(av, bv, m.Better, m.Bound)
				}
				if verdict == regressed {
					code = 1
				}
				q1a, ma, q3a := quartiles(av)
				q1b, mb, q3b := quartiles(bv)
				fmt.Fprintf(stdout, "%-14s %-33s %12.5g %25s %12.5g %25s %+7.1f%%  %s\n",
					wl.Name, m.Name, ma, fmt.Sprintf("[%.5g, %.5g] %d", q1a, q3a, len(av)),
					mb, fmt.Sprintf("[%.5g, %.5g] %d", q1b, q3b, len(bv)), 100*(mb-ma)/math.Abs(ma), verdict)
			}
		}
	}
	return code
}

// values collects one metric of one workload across a file's correct rows.
func values(rf *ResultsFile, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range rf.Rows {
		if r.Workload != workload || r.Trace != traced || !r.Correct {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// describe summarizes a results file's provenance: core counts, seeds, and
// commits it was measured at.
func describe(rf *ResultsFile) string {
	seen := map[string]bool{}
	var s string
	for _, r := range rf.Rows {
		p := r.Provenance
		d := fmt.Sprintf("nproc=%d gomaxprocs=%d seed=%d commit=%.12s %s", p.NProc, p.GOMAXPROCS, p.Seed, p.Commit, p.GoVersion)
		if !seen[d] {
			seen[d] = true
			if s != "" {
				s += "; "
			}
			s += d
		}
	}
	return s
}
