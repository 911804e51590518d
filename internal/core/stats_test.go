package core

import (
	"reflect"
	"strings"
	"testing"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// TestStatsClone pins that Clone detaches completely: mutating the clone
// (or the original) never shows through, so frozen cached results stay
// frozen.
func TestStatsClone(t *testing.T) {
	s := &Stats{Cycles: 7, RetiredInsts: 11, ExitCases: [7]uint64{1, 2, 3, 4, 5, 6, 0}}
	c := s.Clone()
	if c == s {
		t.Fatal("Clone returned the same pointer")
	}
	if *c != *s {
		t.Fatalf("Clone differs: %+v vs %+v", c, s)
	}
	c.RetiredInsts++
	c.ExitCases[2]++
	if s.RetiredInsts != 11 || s.ExitCases[2] != 3 {
		t.Errorf("mutating the clone leaked into the original: %+v", s)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := &Stats{
		Cycles:             1000,
		RetiredInsts:       2500,
		RetiredBranches:    400,
		RetiredMispredicts: 40,
		FetchedInsts:       5000,
		FetchedWrongCD:     500,
		FetchedWrongCI:     1500,
		RetiredFalse:       100,
		RetiredSelects:     30,
		RetiredMarkers:     60,
		ExecutedInsts:      3000,
		ExecutedSelects:    35,
		ExecutedMarkers:    70,
	}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v", got)
	}
	if got := s.MispredictRate(); got != 0.1 {
		t.Errorf("MispredictRate = %v", got)
	}
	if got := s.MPKI(); got != 16 {
		t.Errorf("MPKI = %v", got)
	}
	if got := s.WrongPathFrac(); got != 0.4 {
		t.Errorf("WrongPathFrac = %v", got)
	}
	if got := s.ExecutedTotal(); got != 3105 {
		t.Errorf("ExecutedTotal = %v", got)
	}
	if got := s.CommittedWork(); got != 2690 {
		t.Errorf("CommittedWork = %v", got)
	}
	str := s.String()
	for _, want := range []string{"IPC=2.500", "misp=40", "fetched=5000"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q:\n%s", want, str)
		}
	}
}

// fillStats sets every counter of s to a distinct value derived from mul
// (via reflection, so new Stats fields are covered automatically). It
// leaves WallSeconds, the one float field, zero: no path sets it.
func fillStats(s *Stats, mul uint64) {
	v := reflect.ValueOf(s).Elem()
	n := uint64(0)
	var set func(f reflect.Value)
	set = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Uint64:
			n++
			f.SetUint(n * mul)
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				set(f.Index(i))
			}
		case reflect.Bool:
			f.SetBool(true)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		set(v.Field(i))
	}
}

// TestStatsDelta pins that Delta subtracts *every* counter field: the
// reflection walk fails if a newly added Stats field is forgotten in
// Delta (its delta would be 0 where cur-prev is not).
func TestStatsDelta(t *testing.T) {
	var prev, cur Stats
	fillStats(&prev, 1)
	fillStats(&cur, 3)
	d := cur.Delta(&prev)

	dv := reflect.ValueOf(d)
	pv := reflect.ValueOf(prev)
	cv := reflect.ValueOf(cur)
	typ := dv.Type()
	var check func(name string, d, p, c reflect.Value)
	check = func(name string, d, p, c reflect.Value) {
		switch d.Kind() {
		case reflect.Uint64:
			if got, want := d.Uint(), c.Uint()-p.Uint(); got != want {
				t.Errorf("Delta.%s = %d, want %d (field not subtracted?)", name, got, want)
			}
		case reflect.Float64:
			if got := d.Float(); got != 0 {
				t.Errorf("Delta.%s = %v, want 0", name, got)
			}
		case reflect.Array:
			for i := 0; i < d.Len(); i++ {
				check(name, d.Index(i), p.Index(i), c.Index(i))
			}
		case reflect.Bool:
			if d.Bool() != c.Bool() {
				t.Errorf("Delta.%s = %v, want copied from cur", name, d.Bool())
			}
		}
	}
	for i := 0; i < dv.NumField(); i++ {
		check(typ.Field(i).Name, dv.Field(i), pv.Field(i), cv.Field(i))
	}

	// Summing deltas reconstructs the endpoint: prev + d == cur for the
	// headline counters the interval sampler accumulates.
	if prev.Cycles+d.Cycles != cur.Cycles || prev.RetiredInsts+d.RetiredInsts != cur.RetiredInsts {
		t.Error("prev + Delta does not reconstruct cur")
	}
	if d2 := cur.Delta(&cur); d2.Cycles != 0 || d2.RetiredInsts != 0 || d2.ExitCases != ([7]uint64{}) {
		t.Errorf("self-delta not zero: %+v", d2)
	}
}

// TestStatsAdd pins that Add sums *every* counter field: the reflection
// walk fails if a newly added Stats field is forgotten in Add (its sum
// would be 0 where a+b is not), so extrapolation can never silently drop
// a counter.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	fillStats(&a, 1)
	fillStats(&b, 3)
	sum := a.Add(&b)

	sv := reflect.ValueOf(sum)
	av := reflect.ValueOf(a)
	bv := reflect.ValueOf(b)
	typ := sv.Type()
	var check func(name string, s, a, b reflect.Value)
	check = func(name string, s, a, b reflect.Value) {
		switch s.Kind() {
		case reflect.Uint64:
			if got, want := s.Uint(), a.Uint()+b.Uint(); got != want {
				t.Errorf("Add.%s = %d, want %d (field not summed?)", name, got, want)
			}
		case reflect.Float64:
			if got := s.Float(); got != 0 {
				t.Errorf("Add.%s = %v, want 0", name, got)
			}
		case reflect.Array:
			for i := 0; i < s.Len(); i++ {
				check(name, s.Index(i), a.Index(i), b.Index(i))
			}
		case reflect.Bool:
			if s.Bool() != (a.Bool() || b.Bool()) {
				t.Errorf("Add.%s = %v, want OR of inputs", name, s.Bool())
			}
		}
	}
	for i := 0; i < sv.NumField(); i++ {
		check(typ.Field(i).Name, sv.Field(i), av.Field(i), bv.Field(i))
	}

	// Adding a zero value is the identity; HaltRetired ORs.
	var zero Stats
	if a.Add(&zero) != a {
		t.Error("Add of zero Stats is not the identity")
	}
	halted := Stats{HaltRetired: true}
	if !zero.Add(&halted).HaltRetired {
		t.Error("Add did not OR HaltRetired")
	}
}

// TestStatsScale pins that Scale multiplies *every* counter field
// (integer counters round half up), so extrapolating sampled stats can
// never silently zero a counter added later.
func TestStatsScale(t *testing.T) {
	var s Stats
	fillStats(&s, 3)
	const f = 2.5
	sc := s.Scale(f)

	cv := reflect.ValueOf(sc)
	ov := reflect.ValueOf(s)
	typ := cv.Type()
	var check func(name string, c, o reflect.Value)
	check = func(name string, c, o reflect.Value) {
		switch c.Kind() {
		case reflect.Uint64:
			want := uint64(float64(o.Uint())*f + 0.5)
			if got := c.Uint(); got != want {
				t.Errorf("Scale.%s = %d, want %d (field not scaled?)", name, got, want)
			}
		case reflect.Float64:
			if got := c.Float(); got != 0 {
				t.Errorf("Scale.%s = %v, want 0", name, got)
			}
		case reflect.Array:
			for i := 0; i < c.Len(); i++ {
				check(name, c.Index(i), o.Index(i))
			}
		case reflect.Bool:
			if c.Bool() != o.Bool() {
				t.Errorf("Scale.%s = %v, want copied", name, c.Bool())
			}
		}
	}
	for i := 0; i < cv.NumField(); i++ {
		check(typ.Field(i).Name, cv.Field(i), ov.Field(i))
	}

	// Scaling by 1 is the identity, and derived ratios are preserved
	// under scaling (the property extrapolated IPC depends on).
	if s.Scale(1) != s {
		t.Error("Scale(1) is not the identity")
	}
	r := Stats{Cycles: 1000, RetiredInsts: 2500}
	r4 := r.Scale(4)
	if r4.IPC() != r.IPC() {
		t.Errorf("IPC not preserved under scaling: %v vs %v", r4.IPC(), r.IPC())
	}
}

// TestStatsStringRounding pins half-away-from-zero percentage rounding:
// 1 mispredict in 800 branches is exactly 0.125%, which %.2f alone would
// render "0.12" (half-to-even).
func TestStatsStringRounding(t *testing.T) {
	s := &Stats{RetiredBranches: 800, RetiredMispredicts: 1}
	if str := s.String(); !strings.Contains(str, "(0.13%)") {
		t.Errorf("String() = %q, want misprediction rate rounded to 0.13%%", str)
	}
	s2 := &Stats{RetiredBranches: 400, RetiredMispredicts: 40}
	if str := s2.String(); !strings.Contains(str, "(10.00%)") {
		t.Errorf("String() = %q, want 10.00%%", str)
	}
}

func TestStatsZeroSafe(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MispredictRate() != 0 || s.MPKI() != 0 || s.WrongPathFrac() != 0 {
		t.Error("zero stats produced non-zero derived metrics")
	}
}

func TestFrontEndDelayTracksDepth(t *testing.T) {
	for _, tt := range []struct{ depth, want int }{
		{30, 25}, {20, 15}, {10, 5}, {5, 0},
	} {
		c := DefaultConfig()
		c.PipelineDepth = tt.depth
		if got := c.frontEndDelay(); got != tt.want {
			t.Errorf("depth %d: delay %d, want %d", tt.depth, got, tt.want)
		}
	}
}

func TestDefaultConfigsAreValid(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default":  DefaultConfig(),
		"dmp":      DMPConfig(),
		"enhanced": EnhancedDMPConfig(),
		"dhp":      DHPConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", name, err)
		}
	}
	e := EnhancedDMPConfig()
	if !e.MultipleCFM || !e.EarlyExit || !e.MultipleDiverge {
		t.Error("enhanced config missing an enhancement")
	}
	if DHPConfig().Mode != ModeDHP || DMPConfig().Mode != ModeDMP {
		t.Error("mode constructors wrong")
	}
}

// The deeper the pipeline, the lower the baseline IPC on mispredict-heavy
// code (the penalty model works end to end).
func TestDepthHurtsBaseline(t *testing.T) {
	var last float64 = 1e9
	for _, depth := range []int{5, 15, 30, 45} {
		p, _ := randomHammockProg(800)
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		st := runBoth(t, p, cfg)
		if st.IPC() >= last {
			t.Errorf("depth %d IPC %.3f did not drop (prev %.3f)", depth, st.IPC(), last)
		}
		last = st.IPC()
	}
}

// KeepAlternateGHR (the paper's footnote-7 policy) must still produce a
// correct machine; its performance effect is measured by the ablation
// bench.
func TestKeepAlternateGHRCorrect(t *testing.T) {
	p, _ := randomHammockProg(1500)
	profiled(t, p)
	cfg := EnhancedDMPConfig()
	cfg.KeepAlternateGHR = true
	runBoth(t, p, cfg)
}

// wpMachine is a bare machine over a 1024-instruction code image, for
// driving the wrong-path classifier directly.
func wpMachine() *Machine {
	return &Machine{prog: &prog.Program{Code: make([]isa.Inst, 1024)}}
}

// The wrong-path classifier: drive the wpEpisode machinery directly.
func TestWPClassifier(t *testing.T) {
	m := wpMachine()
	m.openWP()
	for _, pc := range []uint64{10, 11, 12, 20, 21, 22} {
		m.recordWrongFetch(pc)
	}
	m.closeWP()
	// Correct path passes through pc 20: wrong-path fetches from index 3
	// (the first occurrence of 20) onward are control-independent.
	m.feedWPWatchers(5)
	m.feedWPWatchers(20)
	m.flushWPAll()
	if m.Stats.FetchedWrongCD != 3 || m.Stats.FetchedWrongCI != 3 {
		t.Errorf("CD=%d CI=%d, want 3/3", m.Stats.FetchedWrongCD, m.Stats.FetchedWrongCI)
	}
}

func TestWPClassifierNoReconvergence(t *testing.T) {
	m := wpMachine()
	m.openWP()
	for _, pc := range []uint64{10, 11, 12} {
		m.recordWrongFetch(pc)
	}
	m.closeWP()
	// Correct path never revisits those PCs within the watch window.
	for pc := uint64(100); pc < 700; pc++ {
		m.feedWPWatchers(pc)
	}
	m.flushWPAll()
	if m.Stats.FetchedWrongCD != 3 || m.Stats.FetchedWrongCI != 0 {
		t.Errorf("CD=%d CI=%d, want 3/0", m.Stats.FetchedWrongCD, m.Stats.FetchedWrongCI)
	}
}

func TestWPClassifierUnfinishedEpisode(t *testing.T) {
	m := wpMachine()
	m.openWP()
	m.recordWrongFetch(1)
	m.recordWrongFetch(2)
	// Run ends before the oracle resumes: counted as control-dependent.
	m.flushWPAll()
	if m.Stats.FetchedWrongCD != 2 {
		t.Errorf("CD=%d, want 2", m.Stats.FetchedWrongCD)
	}
	// flushWPAll is safe to call twice.
	m.flushWPAll()
	if m.Stats.FetchedWrongCD != 2 {
		t.Error("double flushWPAll double-counted")
	}
}
