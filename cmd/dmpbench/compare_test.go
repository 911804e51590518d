package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func pairsOf(a, b []float64) [][2]float64 {
	var ps [][2]float64
	for i := range a {
		ps = append(ps, [2]float64{a[i], b[i]})
	}
	return ps
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim.kips", Unit: "kinst/s", Better: "higher"}
	layer := metricDef{Name: "emu.ns_per_inst", Unit: "ns", Better: "lower"}
	count := metricDef{Name: "sched.computed", Unit: "count", Better: "lower"}

	// Ten runs with a 2% spread around 10.
	base := []float64{9.9, 10.1, 10.0, 9.95, 10.05, 9.9, 10.1, 10.0, 10.02, 9.98}
	noisy := []float64{8, 12, 10, 9, 11, 8.5, 11.5, 10, 9.5, 10.5}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"identical", lower, base, base, same},
		{"faster everywhere", lower, base, scaled(base, 0.8), improved},
		{"5% slower, within bound", lower, base, scaled(base, 1.05), same},
		{"20% slower", lower, base, scaled(base, 1.2), regressed},
		{"noise wider than bound", lower, base, noisy, unresolved},
		{"noisy but every B run better", lower, noisy, scaled(noisy, 0.5), improved},
		{"higher is better", metricDef{Name: "x", Unit: "1/s", Better: "higher", Bound: 0.1}, base, scaled(base, 0.8), regressed},
		{"per-layer better", higher, base, scaled(base, 1.3), improved},
		{"per-layer worse", layer, base, scaled(base, 1.3), worse},
		{"per-layer small change", layer, base, scaled(base, 1.001), same},
	} {
		if got := judge(tc.d, tc.a, tc.b, pairsOf(tc.a, tc.b), true); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	// Improved needs 9/10 pair wins, not only a better median.
	b := scaled(base, 0.8)
	b[0], b[1] = 20, 20
	if got := judge(lower, base, b, pairsOf(base, b), true); got == improved {
		t.Error("8/10 pair wins counted as improved")
	}

	counts := []float64{405, 405, 405}
	if got := judge(count, counts, counts, pairsOf(counts, counts), true); got != same {
		t.Errorf("equal counts: %s", got)
	}
	other := []float64{405, 406, 405}
	if got := judge(count, counts, other, pairsOf(counts, other), true); got != changed {
		t.Errorf("count changed for one seed: %s", got)
	}
	if got := judge(count, counts, other, pairsOf(counts, other), false); got != varies {
		t.Errorf("count differs across different seeds: %s", got)
	}
}

func writeRecords(t *testing.T, dir string, seeds []int64, round func(seed int64) float64) {
	t.Helper()
	for _, s := range seeds {
		rec := Record{Seed: s, Workloads: map[string]Outcome{"exact-long": {
			Correct: true, Attempted: 60,
			Metrics: map[string]Metric{
				"round_s":        {Value: round(s), Unit: "s"},
				"sched.computed": {Value: 0, Unit: "count"},
			},
		}}}
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("run-%d.json", s)), rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunCompare(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	writeRecords(t, a, seeds, func(s int64) float64 { return 10 + float64(s%3)*0.05 })
	writeRecords(t, b, seeds, func(s int64) float64 { return 10 + float64(s%2)*0.05 })
	writeRecords(t, c, seeds, func(s int64) float64 { return 13 + float64(s%2)*0.05 })

	var out, errOut bytes.Buffer
	if code := runCompare([]string{a, b}, &out, &errOut); code != 0 {
		t.Errorf("same code compared: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "round_s") || !strings.Contains(out.String(), " same ") {
		t.Errorf("output lacks a same verdict for round_s:\n%s", out.String())
	}

	out.Reset()
	files, _ := filepath.Glob(filepath.Join(a, "*.json"))
	more, _ := filepath.Glob(filepath.Join(c, "*.json"))
	if code := runCompare(append(files, more...), &out, &errOut); code != 1 {
		t.Errorf("30%% slower compared: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), regressed) {
		t.Errorf("no regressed verdict:\n%s", out.String())
	}

	if code := runCompare([]string{a}, &out, &errOut); code != 2 {
		t.Errorf("one set: exit %d, want 2", code)
	}
}
