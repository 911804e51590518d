package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The limits BENCHMARK.json's format sets on names, units, table sizes
// and bounds.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxBound    = 0.25
)

// checkDefs validates a metric table: names and units well formed and
// unique, a direction on each, bounds present (end-to-end) or absent
// (per-layer), and the table within its cap.
func checkDefs(defs []metricDef, endToEnd bool) error {
	limit := maxPerLayer
	if endToEnd {
		limit = maxEndToEnd
	}
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1 to %d", len(defs), limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		case seen[d.Name]:
			return fmt.Errorf("metric %q declared twice", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %q: unit %q is malformed", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %q: better is %q, want lower or higher", d.Name, d.Better)
		case endToEnd && (d.Bound <= 0 || d.Bound > maxBound):
			return fmt.Errorf("metric %q: bound %v outside (0, %v]", d.Name, d.Bound, maxBound)
		case !endToEnd && d.Bound != 0:
			return fmt.Errorf("per-layer metric %q has a bound", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 48, want: 75, ok: true},
		{n: 50, want: 80, ok: true},
		{n: 60, want: 80, ok: true},
		{n: 99, want: 80, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than %d samples beyond", tc.n, got, minBeyond)
		}
	}
}

// The end-to-end tail is named op_ms_p75, so every workload's smallest
// measured run must time enough operations for p75 to have ten samples
// beyond it.
func TestWorkloadSizesCoverTail(t *testing.T) {
	for _, w := range workloads {
		p, ok := tailPercentile(w.minRounds * w.opsPerRound)
		if !ok || p < 75 {
			t.Errorf("%s: %d rounds of %d operations support only p%v", w.name, w.minRounds, w.opsPerRound, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 75: 8, 80: 8, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// Quartiles follow Python's statistics.quantiles(xs, n=4); the expected
// values below are what Python prints.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if math.Abs(s.q1-tc.q1) > 1e-12 || math.Abs(s.med-tc.med) > 1e-12 || math.Abs(s.q3-tc.q3) > 1e-12 {
			t.Errorf("summarize(%v) = %v %v %v; want %v %v %v", tc.xs, s.q1, s.med, s.q3, tc.q1, tc.med, tc.q3)
		}
	}
	if got := summarize([]float64{90, 100, 110, 100}).spread(); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", got)
	}
}

func TestMetricTablesValid(t *testing.T) {
	if err := checkDefs(endToEnd, true); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkDefs(perLayer, false); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("%s is both end-to-end and per-layer", d.Name)
		}
		seen[d.Name] = true
	}
	setup := endToEnd[0]
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

func TestCheckDefsRejects(t *testing.T) {
	ok := metricDef{Name: "a_b.c-1", Unit: "ms", Better: "lower", Bound: 0.1}
	many := func(n int, bound float64) []metricDef {
		var ds []metricDef
		for i := 0; i < n; i++ {
			ds = append(ds, metricDef{Name: fmt.Sprintf("m%d", i), Unit: "s", Better: "lower", Bound: bound})
		}
		return ds
	}
	for name, tc := range map[string]struct {
		defs []metricDef
		e2e  bool
	}{
		"space in name":    {[]metricDef{{Name: "a b", Unit: "s", Better: "lower", Bound: 0.1}}, true},
		"leading dot":      {[]metricDef{{Name: ".a", Unit: "s", Better: "lower", Bound: 0.1}}, true},
		"slash in name":    {[]metricDef{{Name: "a/b", Unit: "s", Better: "lower", Bound: 0.1}}, true},
		"65 letters":       {[]metricDef{{Name: strings.Repeat("a", 65), Unit: "s", Better: "lower", Bound: 0.1}}, true},
		"duplicate":        {[]metricDef{ok, ok}, true},
		"bad unit":         {[]metricDef{{Name: "a", Unit: "m s", Better: "lower", Bound: 0.1}}, true},
		"bad direction":    {[]metricDef{{Name: "a", Unit: "s", Better: "faster", Bound: 0.1}}, true},
		"bound too large":  {[]metricDef{{Name: "a", Unit: "s", Better: "lower", Bound: 0.3}}, true},
		"no bound":         {[]metricDef{{Name: "a", Unit: "s", Better: "lower"}}, true},
		"per-layer bound":  {[]metricDef{ok}, false},
		"17 end-to-end":    {many(17, 0.1), true},
		"129 per-layer":    {many(129, 0), false},
		"empty end-to-end": {nil, true},
		"empty per-layer":  {nil, false},
		"unit of 17 chars": {[]metricDef{{Name: "a", Unit: strings.Repeat("s", 17), Better: "lower", Bound: 0.1}}, true},
		"empty unit":       {[]metricDef{{Name: "a", Unit: "", Better: "lower"}}, false},
	} {
		if err := checkDefs(tc.defs, tc.e2e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkDefs(many(16, 0.1), true); err != nil {
		t.Errorf("16 end-to-end metrics rejected: %v", err)
	}
	if err := checkDefs(many(128, 0), false); err != nil {
		t.Errorf("128 per-layer metrics rejected: %v", err)
	}
}

// BENCHMARK.json at the repository root must describe exactly the
// workloads and metrics this package runs and emits.
func TestBenchmarkJSONInSync(t *testing.T) {
	path, err := repoFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !sameSet(got, want) {
		t.Errorf("BENCHMARK.json keys %v, want %v", got, want)
	}

	var bj struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlJSON    `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/dmpbench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if !reflect.DeepEqual(bj.Command, []string{"bash", "cmd/dmpbench/run.sh"}) {
		t.Errorf("command = %v", bj.Command)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	var wls []wlJSON
	for _, w := range workloads {
		wls = append(wls, wlJSON{w.name, w.why})
	}
	if !reflect.DeepEqual(bj.Workloads, wls) {
		t.Errorf("workloads differ:\n BENCHMARK.json %v\n dmpbench       %v", bj.Workloads, wls)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n dmpbench       %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n dmpbench       %v", bj.PerLayer, perLayer)
	}
}

type wlJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM(strings.NewReader("Name:\tdmpbench\nVmPeak:\t  99 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"))
	if err != nil || got != 2 {
		t.Errorf("parseVmHWM = %v, %v; want 2 MiB", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Error("no VmHWM line accepted")
	}
}
