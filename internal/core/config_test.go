package core

import (
	"strings"
	"testing"

	"dmp/internal/prog"
)

// TestCanonicalNormalizesDefaultNames pins that defaulted predictor and
// confidence names canonicalize to the concrete choices machine
// construction makes, so a Config written with "" and one written with
// the explicit default produce the same cache key.
func TestCanonicalNormalizesDefaultNames(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.PredictorName = ""
	b.ConfidenceName = ""
	if a.Canonical() != b.Canonical() {
		t.Errorf("defaulted names canonicalize differently:\n%+v\n%+v", a.Canonical(), b.Canonical())
	}
	if got := b.Canonical(); got.PredictorName != "perceptron" || got.ConfidenceName != "jrs" {
		t.Errorf("canonical names = %q/%q, want perceptron/jrs", got.PredictorName, got.ConfidenceName)
	}
}

// TestCanonicalFoldsPredicationKnobsForBaseline pins that the
// dynamic-predication knobs — never consulted outside an episode — fold
// away for the baseline and perfect-CBP machines, but survive for modes
// that predicate.
func TestCanonicalFoldsPredicationKnobsForBaseline(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModePerfect} {
		plain := DefaultConfig()
		plain.Mode = mode
		knobbed := plain
		knobbed.MultipleCFM = true
		knobbed.EarlyExit = true
		knobbed.MultipleDiverge = true
		knobbed.EnableLoopDiverge = true
		knobbed.KeepAlternateGHR = true
		if plain.Canonical() != knobbed.Canonical() {
			t.Errorf("%v: predication knobs not folded", mode)
		}
	}
	basic := DMPConfig()
	enhanced := EnhancedDMPConfig()
	if basic.Canonical() == enhanced.Canonical() {
		t.Error("DMP enhancements folded away — they change the simulation")
	}
	dhp := DHPConfig()
	dhpKnobbed := DHPConfig()
	dhpKnobbed.MultipleCFM = true
	if dhp.Canonical() == dhpKnobbed.Canonical() {
		t.Error("DHP MultipleCFM folded away — DHP enters episodes and reads it")
	}
}

// TestCanonicalKeepsConfidenceName pins that ConfidenceName is never
// folded: even the baseline consults the estimator on every fetched
// conditional branch (the LowConfCorrect/LowConfWrong counters differ).
func TestCanonicalKeepsConfidenceName(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.ConfidenceName = "perfect"
	if a.Canonical() == b.Canonical() {
		t.Error("ConfidenceName folded for baseline; it changes Stats")
	}
}

// TestCanonicalFoldsCheckRetirement pins that the golden checker never
// changes results, only wall-clock: callers key it separately.
func TestCanonicalFoldsCheckRetirement(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.CheckRetirement = !a.CheckRetirement
	if a.Canonical() != b.Canonical() {
		t.Error("CheckRetirement not folded")
	}
}

// TestCanonicalIdempotent: canonicalizing twice is a no-op, so cache
// layers can canonicalize defensively without splitting keys.
func TestCanonicalIdempotent(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), DMPConfig(), DHPConfig(), EnhancedDMPConfig()} {
		once := c.Canonical()
		if once != once.Canonical() {
			t.Errorf("Canonical not idempotent for %v", c.Mode)
		}
	}
}

// TestCanonicalMergeKnobs pins the merge-predictor folding rules: the
// knobs vanish wherever the predictor is never built, the defaulted and
// explicit default table sizes share a key, and distinct table sizes
// stay distinct (a cache hit across table sizes would be stale).
func TestCanonicalMergeKnobs(t *testing.T) {
	// Annotated source (spelled or defaulted) folds the table size away.
	a := EnhancedDMPConfig()
	b := EnhancedDMPConfig()
	b.CFMSource = "annotated"
	b.MergeTableSize = 256
	if a.Canonical() != b.Canonical() {
		t.Error("annotated-source MergeTableSize not folded")
	}
	// Non-DMP modes never build the predictor.
	for _, mk := range []func() Config{DefaultConfig, DHPConfig} {
		plain := mk()
		knobbed := mk()
		knobbed.CFMSource = "dynamic"
		knobbed.MergeTableSize = 16
		if plain.Canonical() != knobbed.Canonical() {
			t.Errorf("merge knobs not folded for mode %v", plain.Mode)
		}
	}
	// Dynamic source: defaulted size == explicit default size.
	d1 := EnhancedDMPConfig()
	d1.CFMSource = "dynamic"
	d2 := d1
	d2.MergeTableSize = d1.Canonical().MergeTableSize
	if d1.Canonical() != d2.Canonical() {
		t.Error("defaulted table size keys differently from the explicit default")
	}
	// ...but a different size is a different machine.
	d3 := d1
	d3.MergeTableSize = 16
	if d1.Canonical() == d3.Canonical() {
		t.Error("distinct table sizes canonicalize to the same key")
	}
	// And source changes on DMP are different machines.
	h := d1
	h.CFMSource = "hybrid"
	if d1.Canonical() == h.Canonical() {
		t.Error("dynamic and hybrid sources canonicalize to the same key")
	}
	for _, c := range []Config{d1, d3, h, b} {
		once := c.Canonical()
		if once != once.Canonical() {
			t.Errorf("Canonical not idempotent for source %q", c.CFMSource)
		}
	}
}

// TestValidateCFMSource pins the accepted CFM sources.
func TestValidateCFMSource(t *testing.T) {
	for _, src := range []string{"", "annotated", "dynamic", "hybrid"} {
		c := DMPConfig()
		c.CFMSource = src
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v", src, err)
		}
	}
	c := DMPConfig()
	c.CFMSource = "oracle"
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted an unknown CFM source")
	}
	c = DMPConfig()
	c.CFMSource = "dynamic"
	c.MergeTableSize = -1
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted a negative table size")
	}
}

// TestCanonicalWarmMode pins the warm-mode folding rules: the knob
// defaults to "full" under SampleMode (so old cache keys stay valid in
// spirit: defaulted == explicit full), vanishes entirely when sampling
// is off, and "caches" keys differently from "full".
func TestCanonicalWarmMode(t *testing.T) {
	a := EnhancedDMPConfig()
	a.SampleMode = true
	b := a
	b.WarmMode = "full"
	if a.Canonical() != b.Canonical() {
		t.Error("defaulted warm mode keys differently from explicit full")
	}
	c := a
	c.WarmMode = "caches"
	if a.Canonical() == c.Canonical() {
		t.Error("caches-only warm mode canonicalizes to the same key as full")
	}
	off := EnhancedDMPConfig()
	offKnobbed := off
	offKnobbed.WarmMode = "caches"
	if off.Canonical() != offKnobbed.Canonical() {
		t.Error("warm mode not folded away when SampleMode is off")
	}
	for _, cc := range []Config{a, c, offKnobbed} {
		once := cc.Canonical()
		if once != once.Canonical() {
			t.Errorf("Canonical not idempotent for WarmMode %q", cc.WarmMode)
		}
	}
}

// TestValidateWarmMode pins the accepted warm modes.
func TestValidateWarmMode(t *testing.T) {
	for _, wm := range []string{"", "full", "caches"} {
		c := EnhancedDMPConfig()
		c.SampleMode = true
		c.WarmMode = wm
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v", wm, err)
		}
	}
	c := EnhancedDMPConfig()
	c.SampleMode = true
	c.WarmMode = "none"
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted an unknown warm mode")
	}
}

// TestSamplePointValidate is the one sampling-point rule dmpsim -sample
// and dmpexp both apply at parse time: defaults first, then a known warm
// mode and an interval plus warmup that fits strictly inside the period.
// The rejected rows are the union of what either command rejected
// before they shared the rule.
func TestSamplePointValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pt      SamplePoint
		wantErr string
	}{
		{name: "defaults"},
		{name: "custom", pt: SamplePoint{SamplePeriod: 4000, SampleInterval: 500, SampleWarmup: 100}},
		{name: "caches", pt: SamplePoint{SampleWarmup: 512, WarmMode: "caches"}},
		{name: "warmup-fills-period", pt: SamplePoint{SamplePeriod: 1024, SampleInterval: 512, SampleWarmup: 512}},
		{name: "interval-eq-period", pt: SamplePoint{SamplePeriod: 500, SampleInterval: 500}, wantErr: "must be smaller"},
		{name: "interval-eq-default-period", pt: SamplePoint{SampleInterval: DefaultSamplePeriod}, wantErr: "must be smaller"},
		{name: "warmup-overflows-period", pt: SamplePoint{SamplePeriod: 1000, SampleInterval: 600, SampleWarmup: 500}, wantErr: "shorter than"},
		{name: "huge-warmup", pt: SamplePoint{SampleWarmup: ^uint64(0)}, wantErr: "shorter than"},
		{name: "unknown-warm-mode", pt: SamplePoint{WarmMode: "none"}, wantErr: "warm mode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.pt.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want containing %q", err, tc.wantErr)
			}
			c := EnhancedDMPConfig()
			c.SampleMode = true
			c.SamplePoint = tc.pt
			if c.Validate() == nil {
				t.Error("Config.Validate accepted the point")
			}
			c.SampleMode = false
			if err := c.Validate(); err != nil {
				t.Errorf("exact Config.Validate = %v; the point is ignored without SampleMode", err)
			}
		})
	}
}

// TestModeConfig pins the machine vocabulary shared by dmpsim -mode and
// dmpserve's run requests: each name builds the configuration the paper
// compares under it, and anything else is rejected.
func TestModeConfig(t *testing.T) {
	perfect := DefaultConfig()
	perfect.Mode = ModePerfect
	dmp := DefaultConfig()
	dmp.Mode = ModeDMP
	dhp := DefaultConfig()
	dhp.Mode = ModeDHP
	dual := DefaultConfig()
	dual.Mode = ModeDualPath
	for name, want := range map[string]Config{
		"baseline": DefaultConfig(),
		"perfect":  perfect,
		"dmp":      dmp,
		"dhp":      dhp,
		"dualpath": dual,
		"enhanced": EnhancedDMPConfig(),
	} {
		got, err := ModeConfig(name)
		if err != nil {
			t.Errorf("ModeConfig(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("ModeConfig(%q) = %+v, want %+v", name, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("ModeConfig(%q) fails Validate: %v", name, err)
		}
	}
	for _, name := range []string{"", "perfect-cbp", "Enhanced", "warp"} {
		if _, err := ModeConfig(name); err == nil {
			t.Errorf("ModeConfig(%q) accepted an unknown mode", name)
		}
	}
}

// TestLoopOnlyProgramEvidence runs a program whose only mark is a
// diverge loop branch. With loop diverge on, DMP and DHP predicate it:
// they enter episodes and record the loop class, so their runs do not
// answer the baseline. With it off they never enter, and each run and
// the baseline's answer each other with equal Stats and evidence. No
// benchmark or generated program in the differential tests has loop
// marks alone.
func TestLoopOnlyProgramEvidence(t *testing.T) {
	p, _ := randomHammockProg(200)
	loopPC := uint64(len(p.Code) - 3)
	p.Diverge = map[uint64]*prog.Diverge{loopPC: {CFMs: []uint64{loopPC + 1}, Loop: true, Class: prog.ClassSimpleHammock}}
	run := func(cfg Config) (Config, *Stats, Evidence) {
		t.Helper()
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkStats(t, m, st)
		return cfg.Canonical(), st, m.Evidence()
	}
	base := DefaultConfig()
	base.ConfidenceName = "always-low"
	base, baseSt, baseEv := run(base)
	if baseEv.Seen != LoopHammock {
		t.Fatalf("the baseline recorded regions %b, want the loop hammock alone", baseEv.Seen)
	}
	for _, mode := range []Mode{ModeDMP, ModeDHP} {
		cfg := base
		cfg.Mode = mode
		loops := cfg
		loops.EnableLoopDiverge = true
		loops, st, ev := run(loops)
		if st.Episodes == 0 {
			t.Errorf("%v with loop diverge entered no episode: the program tests nothing", mode)
		}
		if ev.Seen&LoopHammock == 0 || ev.Answers(loops, base) || baseEv.Answers(base, loops) {
			t.Errorf("%v with loop diverge: regions %b, and its run and the baseline's answer each other", mode, ev.Seen)
		}
		cfg, st, ev = run(cfg)
		if !ev.Answers(cfg, base) || !baseEv.Answers(base, cfg) {
			t.Errorf("%v without loop diverge and the baseline do not answer each other (regions %b)", mode, ev.Seen)
		}
		if *st != *baseSt || ev != baseEv {
			t.Errorf("%v without loop diverge and the baseline differ:\n%v %+v\n%v %+v", mode, st, ev, baseSt, baseEv)
		}
	}
}
