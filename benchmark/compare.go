package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// Verdicts, by the rules for landing a change on one layer: a gain needs
// at least minPairs pairs, the change to win at least nine tenths of them
// and its median to differ from the parent's by more than the parent's own
// quartile spread; no regression means the median is no worse than the
// bound; where either side's spread is wider than the bound, or the runs
// point to a gain too few pairs support, the metric is unresolved, unless
// every run of the change reads better than every run of the parent.
const (
	improved   = "improved"
	noWorse    = "no-worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// verdict compares the per-run values of one metric on one workload, the
// parent's runs against the change's. Runs are paired in the order they
// were recorded.
func verdict(s metricSpec, parent, change []float64) string {
	// better reports whether a reads better than b.
	better := func(a, b float64) bool {
		if s.Better == "higher" {
			return a > b
		}
		return a < b
	}
	mParent, mChange := median(parent), median(change)
	q1, q3 := quartiles(parent)
	wins, pairs := 0, min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	gain := pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(mChange, mParent) &&
		math.Abs(mChange-mParent) > q3-q1
	if gain && pairs >= minPairs {
		return improved
	}
	if allBetter {
		return noWorse
	}
	if gain || spread(parent) > s.Bound || spread(change) > s.Bound {
		return unresolved
	}
	worse := (mChange - mParent) / mParent
	if s.Better == "higher" {
		worse = -worse
	}
	if worse > s.Bound {
		return regressed
	}
	return noWorse
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// cmdCompare prints one row per workload and end-to-end metric for two
// results files written with -out, and exits 1 if any metric regressed.
func cmdCompare(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare OLD.json NEW.json")
		return 2
	}
	var files [2]resultsFile
	for i := range files {
		if err := readJSON(fl.Arg(i), &files[i]); err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", fl.Arg(i), err)
			return 2
		}
	}
	// values[side][workload][metric] lists the untraced runs' medians.
	var values [2]map[string]map[string][]float64
	workloads := map[string]bool{}
	for i, f := range files {
		values[i] = map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if r.Traced {
				continue
			}
			if values[i][r.Workload] == nil {
				values[i][r.Workload] = map[string][]float64{}
			}
			for name, st := range r.Metrics {
				values[i][r.Workload][name] = append(values[i][r.Workload][name], st.Value)
			}
			workloads[r.Workload] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-9s %-12s %5s %12s %12s %12s %5s %12s %12s %12s %6s  %s\n", "workload", "metric",
		"n_old", "old_med", "old_q1", "old_q3", "n_new", "new_med", "new_q1", "new_q3", "bound", "verdict")
	code := 0
	for _, w := range names {
		for _, s := range endToEnd {
			parent, change := values[0][w][s.Name], values[1][w][s.Name]
			if len(parent) == 0 || len(change) == 0 {
				fmt.Printf("%-9s %-12s missing on one side\n", w, s.Name)
				continue
			}
			v := verdict(s, parent, change)
			if v == regressed {
				code = 1
			}
			pq1, pq3 := quartiles(parent)
			cq1, cq3 := quartiles(change)
			fmt.Printf("%-9s %-12s %5d %12.6g %12.6g %12.6g %5d %12.6g %12.6g %12.6g %5.0f%%  %s\n",
				w, s.Name, len(parent), median(parent), pq1, pq3, len(change), median(change), cq1, cq3, 100*s.Bound, v)
		}
	}
	return code
}
