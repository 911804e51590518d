package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of -compare, for side B against side A.
const (
	improved   = "improved"   // B wins 9/10 pairs and the medians differ by more than A's IQR
	same       = "same"       // within the bound (or, per layer, no claim either way)
	regressed  = "regressed"  // B's median is worse than A's by more than the bound
	unresolved = "unresolved" // the spread is wider than the bound: no conclusion
	worse      = "worse"      // per layer: B loses 9/10 pairs and the medians differ by more than A's IQR
	changed    = "changed"    // a count differs between runs of the same seed
	varies     = "varies"     // a count differs, but the sides ran different seeds
)

// runCompare implements -compare: it reads two sets of -out files and
// prints one verdict per (workload, metric), by the rule for claiming a
// change measured in a small, noisy sandbox. It exits 1 when an
// end-to-end metric regressed or a count changed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	a, b, err := loadSides(args)
	if err != nil {
		fmt.Fprintf(stderr, "dmpbench: compare: %v\n", err)
		return 2
	}
	bad := 0
	for _, w := range workloadNames() {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			va, vb, pairs, bySeed := metricValues(a, b, w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb, pairs, bySeed)
			if v == regressed || v == changed {
				bad++
			}
			sa, sb := summarize(va), summarize(vb)
			fmt.Fprintf(stdout, "%-13s %-28s %-10s A %s  B %s  pairs %d %s\n", w, d.Name, v,
				fmtSummary(sa), fmtSummary(sb), len(pairs), d.Unit)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressed or changed\n", bad)
		return 1
	}
	return 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.6g [%.6g %.6g]", s.med, s.q1, s.q3)
}

// judge returns the verdict for one metric, given each side's values and
// the (A, B) pairs to count wins over. Counts must repeat exactly for a
// seed. Otherwise B improved when it wins at least nine tenths of the
// pairs, ties counting for neither, and the medians differ by more than
// A's interquartile range. An end-to-end metric regressed when B's
// median is worse than A's by more than the bound, and is unresolved
// when either side's spread exceeds the bound, unless every B run beats
// every A run.
func judge(d metricDef, a, b []float64, pairs [][2]float64, bySeed bool) string {
	if d.Unit == "count" {
		for _, p := range pairs {
			if p[0] != p[1] {
				if bySeed {
					return changed
				}
				return varies
			}
		}
		return same
	}
	sign := 1.0 // positive differences are worse
	if d.Better == "higher" {
		sign = -1
	}
	sa, sb := summarize(a), summarize(b)
	gap := sign * (sb.med - sa.med)
	wins, losses := 0, 0
	for _, p := range pairs {
		switch diff := sign * (p[1] - p[0]); {
		case diff < 0:
			wins++
		case diff > 0:
			losses++
		}
	}
	n := len(pairs)
	beyondNoise := math.Abs(gap) > sa.q3-sa.q1
	if n > 0 && wins*10 >= 9*n && gap < 0 && beyondNoise {
		return improved
	}
	if d.Bound == 0 {
		if n > 0 && losses*10 >= 9*n && gap > 0 && beyondNoise {
			return worse
		}
		return same
	}
	if gap > d.Bound*math.Abs(sa.med) {
		return regressed
	}
	if (sa.spread() > d.Bound || sb.spread() > d.Bound) && !allBetter(a, b, sign) {
		return unresolved
	}
	return same
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}

// metricValues collects one metric of one workload from both sides and
// pairs the runs: by seed when both sides ran the same seeds, otherwise
// in seed order.
func metricValues(a, b []Record, workload, metric string) (va, vb []float64, pairs [][2]float64, bySeed bool) {
	get := func(recs []Record) (vals []float64, seeds []int64) {
		for _, r := range recs {
			if m, ok := r.Workloads[workload].Metrics[metric]; ok {
				vals = append(vals, m.Value)
				seeds = append(seeds, r.Seed)
			}
		}
		return vals, seeds
	}
	va, sa := get(a)
	vb, sb := get(b)
	bySeed = len(sa) == len(sb)
	for i := range sa {
		bySeed = bySeed && sa[i] == sb[i]
	}
	for i := 0; i < len(va) && i < len(vb); i++ {
		pairs = append(pairs, [2]float64{va[i], vb[i]})
	}
	return va, vb, pairs, bySeed
}

// loadSides reads the two sets of records: the *.json files under two
// directories (searched recursively), or files that come from exactly
// two directories. Each side is sorted by seed.
func loadSides(args []string) (a, b []Record, err error) {
	var groups [][]string
	if len(args) == 2 && isDir(args[0]) && isDir(args[1]) {
		for _, dir := range args {
			var files []string
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
					files = append(files, path)
				}
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			groups = append(groups, files)
		}
	} else {
		index := map[string]int{}
		for _, f := range args {
			dir := filepath.Dir(f)
			i, ok := index[dir]
			if !ok {
				i = len(groups)
				index[dir] = i
				groups = append(groups, nil)
			}
			groups[i] = append(groups[i], f)
		}
	}
	if len(groups) != 2 {
		return nil, nil, fmt.Errorf("want two sets of results (two directories), got %d", len(groups))
	}
	sides := make([][]Record, 2)
	for i, files := range groups {
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, nil, err
			}
			var r Record
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", f, err)
			}
			sides[i] = append(sides[i], r)
		}
		if len(sides[i]) == 0 {
			return nil, nil, fmt.Errorf("set %d has no results", i+1)
		}
		sort.SliceStable(sides[i], func(x, y int) bool { return sides[i][x].Seed < sides[i][y].Seed })
	}
	return sides[0], sides[1], nil
}

func isDir(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}
