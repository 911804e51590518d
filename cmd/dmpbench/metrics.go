package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The two tables below define
// what the benchmark reports: BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds in the same order
// (TestBenchmarkJSONInSync), and every workload reports every metric of
// the table its mode selects — end-to-end untraced, per-layer traced.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the waits and costs a user of the simulator sees, in host
// time. Bound is the share of the parent's median by which a metric may
// get worse before a change counts as a regression; each was set from
// the spread of two sets of runs recorded in BASELINE.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p75", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer attribute a workload's time to the packages beneath it. A
// traced run reports all of them on every workload; a layer a workload
// bypasses reads zero there (sched and sample on exact-long), which is
// the prediction "no change" for a change to that layer. Quantities that
// can be identically zero are counts or shares of round time, never
// times, so every time below is a real measurement on every workload.
var perLayer = []metricDef{
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "op.count", Unit: "count", Better: "higher"},
	{Name: "sim.kips", Unit: "kinst/s", Better: "higher"},

	{Name: "sched.requests", Unit: "count", Better: "lower"},
	{Name: "sched.computed", Unit: "count", Better: "lower"},
	{Name: "sched.reused", Unit: "count", Better: "higher"},
	{Name: "sched.store_hits", Unit: "count", Better: "higher"},
	{Name: "sched.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.shed", Unit: "count", Better: "lower"},
	{Name: "sched.slot_wait_pct", Unit: "%", Better: "lower"},
	{Name: "sched.singleflight_wait_pct", Unit: "%", Better: "lower"},
	{Name: "sched.simulation_pct", Unit: "%", Better: "lower"},
	{Name: "sched.cold.computed", Unit: "count", Better: "lower"},
	{Name: "sched.restart.store_hits", Unit: "count", Better: "higher"},
	{Name: "sched.restart.computed", Unit: "count", Better: "lower"},
	{Name: "sched.hot.hits", Unit: "count", Better: "higher"},

	{Name: "sample.intervals", Unit: "count", Better: "lower"},
	{Name: "sample.prefix_pct", Unit: "%", Better: "lower"},
	{Name: "sample.warm_pct", Unit: "%", Better: "lower"},
	{Name: "sample.snapshot_pct", Unit: "%", Better: "lower"},
	{Name: "sample.detailed_pct", Unit: "%", Better: "lower"},

	{Name: "profile.annotate_s", Unit: "s", Better: "lower"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.baseline.ns_per_uop", Unit: "ns", Better: "lower"},
	{Name: "core.enhanced.ns_per_uop", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "core.uops", Unit: "count", Better: "lower"},
	{Name: "core.cycles", Unit: "count", Better: "lower"},
	{Name: "core.retired", Unit: "count", Better: "higher"},
	{Name: "core.warm_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "cow.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "emu.ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "cache.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "bpred.ns_per_branch", Unit: "ns", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.put_us_p50", Unit: "us", Better: "lower"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is one workload run's result, printed as the last line of
// standard output.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is what -out writes and -compare reads: every workload outcome
// of one invocation, with the seed that made its inputs.
type Record struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]Outcome `json:"workloads"`
}

// --- order statistics ---

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentileGrid are the percentiles a tail may be reported at.
var percentileGrid = []float64{50, 75, 80, 90, 95, 99, 99.9}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples. The epsilon keeps p*n/100 from rounding up past an exact
// integer (99.9 has no exact binary form).
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest grid percentile of n samples that
// has at least minBeyond samples above it, and false if none has.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileGrid {
		if n-rank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// summary is a sample's median and quartiles, computed as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// numbers here match the acceptance check of BENCHMARK.json.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{q[0], q[1], q[2]}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

func median(xs []float64) float64 { return summarize(xs).med }
