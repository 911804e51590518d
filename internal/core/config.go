// Package core implements the diverge-merge processor: an execution-driven
// out-of-order core with dynamic predication of compiler-marked diverge
// branches (Kim, Joao, Mutlu & Patt). The same machine also runs as the
// baseline branch-prediction processor, as a perfect-conditional-branch
// processor, as a Dynamic Hammock Predication (DHP) processor, and as a
// selective dual-path processor, so every configuration the paper
// compares shares fetch, rename, scheduling, memory and retirement logic.
//
// The pipeline is: fetch (branch prediction, dynamic-predication fetch
// FSM, I-cache) → front-end delay queue (models pipeline depth) → rename
// (RAT, per-branch checkpoints, enter/exit uops, select-uop insertion) →
// out-of-order issue/execute (real data values, including on wrong paths)
// → in-order retire (predicate-FALSE squash, store drain, golden-model
// check). A fetch-following functional emulator (the "oracle") supplies
// perfect branch outcomes, classifies wrong-path fetches and logs each
// architectural step for the retirement check; see oracle.go.
package core

import (
	"fmt"

	"dmp/internal/merge"
)

// Mode selects the machine organization being simulated.
type Mode int

// Machine modes.
const (
	// ModeBaseline is the aggressive branch-prediction baseline of
	// Table 2.
	ModeBaseline Mode = iota
	// ModePerfect gives the baseline a perfect conditional branch
	// predictor (the perfect-cbp bars of Figure 7).
	ModePerfect
	// ModeDMP is the diverge-merge processor.
	ModeDMP
	// ModeDHP is Dynamic Hammock Predication: dynamic predication
	// restricted to simple hammock diverge branches.
	ModeDHP
	// ModeDualPath is selective dual-path execution: on a low-confidence
	// branch, fetch both paths (sharing fetch bandwidth) until the branch
	// resolves, then squash the losing path. No merging at
	// control-independent points.
	ModeDualPath
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModePerfect:
		return "perfect-cbp"
	case ModeDMP:
		return "dmp"
	case ModeDHP:
		return "dhp"
	case ModeDualPath:
		return "dualpath"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parameterises the machine. DefaultConfig reproduces Table 2.
type Config struct {
	Mode Mode

	// Front end.
	FetchWidth     int // instructions fetched per cycle (8)
	MaxBrPerFetch  int // conditional branches per fetch cycle (3)
	PipelineDepth  int // total pipeline stages; sets the front-end delay (30)
	FetchQueueSize int // entries between fetch and rename

	// Core.
	ROBSize            int // reorder buffer entries (512)
	IssueWidth         int // max issues per cycle (8)
	RetireWidth        int // max retires per cycle (8)
	LoadPorts          int // data-cache ports (2)
	StoreBufferSize    int // store buffer entries
	SelectUopsPerCycle int // select-uop insertion bandwidth at rename (RAT ports)

	// Predictors. PredictorName selects perceptron (default), gshare,
	// bimodal or hybrid. ConfidenceName selects jrs (default) or perfect.
	PredictorName  string
	ConfidenceName string

	// Dynamic predication enhancements (Section 2.7).
	MultipleCFM       bool // 2.7.1: CAM over all marked CFM points
	EarlyExit         bool // 2.7.2: give up on the alternate path
	MultipleDiverge   bool // 2.7.3: re-enter for a newer diverge branch
	EnableLoopDiverge bool // 2.7.4: predicate marked loop branches too

	// CFMSource selects where episode entry finds a branch's CFM points:
	// "annotated" (default; the compiler annotations shipped with the
	// program), "dynamic" (only the runtime merge-point predictor,
	// internal/merge — annotations are ignored, so unannotated binaries
	// can be predicated), or "hybrid" (the annotation wins when present,
	// the predictor fills unannotated branches; a loop mark reads as no
	// annotation without EnableLoopDiverge). The predictor is only
	// consulted in ModeDMP: it cannot prove the simple-hammock shape DHP
	// requires, so DHP always runs from annotations.
	CFMSource string
	// MergeTableSize overrides the merge predictor's reconvergence table
	// capacity (0 = the internal/merge default). Only meaningful when
	// CFMSource is "dynamic" or "hybrid".
	MergeTableSize int

	// KeepAlternateGHR keeps the alternate path's global history when
	// dynamic predication exits (the paper's design choice, footnote 7).
	// Off by default: on this simulator's perceptron the alternate
	// history pollutes downstream predictions, so the default restores
	// the predicted path's GHR at the CFM point (the episode is usually
	// case 1, where the predicted path is the real history). The ablation
	// bench BenchmarkAblationAlternateGHR quantifies the difference.
	KeepAlternateGHR bool

	// Run limits. MaxInsts bounds retired program instructions
	// (0 = run to HALT); MaxCycles is a hard safety stop.
	MaxInsts  uint64
	MaxCycles uint64

	// Sampled simulation (internal/sample). SampleMode selects SMARTS-style
	// systematic sampling: functional fast-forward between short detailed
	// intervals, with full-run Stats extrapolated from the intervals and
	// reported with confidence bounds. The Machine itself ignores these
	// knobs — drivers (internal/sample, cmd/dmpsim, the exp result
	// cache's one job) dispatch on SampleMode — but they live on Config
	// so Canonical() keys sampled and exact results apart in the result
	// cache and the store. The embedded
	// SamplePoint is the operating point; it is ignored when SampleMode is
	// off.
	SampleMode bool
	SamplePoint

	// CheckRetirement compares every retired instruction with the fetch
	// oracle's log of the same step (golden model). On by default.
	CheckRetirement bool
}

// SamplePoint is a sampling operating point: the knobs of a sampled run.
// The zero value of each field selects its default (WithDefaults).
type SamplePoint struct {
	// SamplePeriod is the number of program instructions from one
	// detailed interval start to the next (and the length of the exactly
	// measured cold-start prefix); SampleInterval the retired
	// instructions measured per detailed interval; SampleWarmup optional
	// extra per-interval functional warming (predictors, caches, merge
	// table trained without cycle accounting) on top of the continuous
	// warming the fast-forward pass already does.
	SamplePeriod   uint64
	SampleInterval uint64
	SampleWarmup   uint64

	// WarmMode selects how much state the continuous functional-warming
	// pass trains: "full" (default; caches, direction predictor,
	// confidence estimator, BTB, RAS, ITC, merge table, plus wrong-path
	// and episode-path cache excursions) or "caches" (cache hierarchy
	// only — instruction fetch and load/store data — skipping predictor
	// training and excursions). Caches-only warming is several times
	// cheaper per instruction; the predictors then start each detailed
	// interval cold, so it should be paired with a nonzero SampleWarmup
	// that retrains the short-history state just before each measured
	// window.
	WarmMode string
}

// Default sampling parameters (SampleMode with zero knobs). The period
// is sized so the scale-1 workloads (~2-4e4 dynamic instructions) still
// yield enough intervals (k >= ~5) for a meaningful confidence interval,
// while the detailed fraction (prefix + interval + pipeline ramp) stays
// low enough for an order-of-magnitude speedup at the default scale.
// Per-interval warmup defaults to zero: the fast-forward pass warms
// caches and predictors continuously, which covers far longer reuse
// distances than any affordable per-interval window.
const (
	DefaultSamplePeriod   = 6_000
	DefaultSampleInterval = 500
)

// WithDefaults spells out the defaulted knobs: what the sampling driver
// will actually run for this point.
func (p SamplePoint) WithDefaults() SamplePoint {
	if p.SamplePeriod == 0 {
		p.SamplePeriod = DefaultSamplePeriod
	}
	if p.SampleInterval == 0 {
		p.SampleInterval = DefaultSampleInterval
	}
	if p.WarmMode == "" {
		p.WarmMode = "full"
	}
	return p
}

// Validate reports a point no sampled run can use: an unknown warm
// mode, or an interval (plus its warmup) that does not fit strictly
// inside the period. Defaults apply first.
func (p SamplePoint) Validate() error {
	p = p.WithDefaults()
	switch {
	case p.WarmMode != "full" && p.WarmMode != "caches":
		return fmt.Errorf("unknown warm mode %q (want full or caches)", p.WarmMode)
	case p.SampleInterval >= p.SamplePeriod:
		return fmt.Errorf("sample interval %d must be smaller than sample period %d", p.SampleInterval, p.SamplePeriod)
	case p.SampleWarmup > p.SamplePeriod-p.SampleInterval:
		return fmt.Errorf("sample period %d shorter than sample interval %d + sample warmup %d",
			p.SamplePeriod, p.SampleInterval, p.SampleWarmup)
	}
	return nil
}

// DefaultConfig is the baseline processor of Table 2 of the paper.
func DefaultConfig() Config {
	return Config{
		Mode:               ModeBaseline,
		FetchWidth:         8,
		MaxBrPerFetch:      3,
		PipelineDepth:      30,
		FetchQueueSize:     64,
		ROBSize:            512,
		IssueWidth:         8,
		RetireWidth:        8,
		LoadPorts:          2,
		StoreBufferSize:    128,
		SelectUopsPerCycle: 4,
		PredictorName:      "perceptron",
		ConfidenceName:     "jrs",
		MaxCycles:          2_000_000_000,
		CheckRetirement:    true,
	}
}

// DMPConfig returns the basic diverge-merge configuration.
func DMPConfig() Config {
	c := DefaultConfig()
	c.Mode = ModeDMP
	return c
}

// EnhancedDMPConfig returns the enhanced diverge-merge configuration with
// all three Section 2.7 enhancements (enhanced-mcfm-eexit-mdb).
func EnhancedDMPConfig() Config {
	c := DMPConfig()
	c.MultipleCFM = true
	c.EarlyExit = true
	c.MultipleDiverge = true
	return c
}

// DHPConfig returns the Dynamic Hammock Predication configuration.
func DHPConfig() Config {
	c := DefaultConfig()
	c.Mode = ModeDHP
	return c
}

// ModeConfig returns one of the six machines the paper compares by the
// name dmpsim -mode and dmpserve's run requests use: baseline, perfect
// (perfect conditional-branch prediction), dmp, dhp, dualpath, or
// enhanced (DMP with all three Section 2.7 enhancements).
func ModeConfig(name string) (Config, error) {
	c := DefaultConfig()
	switch name {
	case "baseline":
	case "perfect":
		c.Mode = ModePerfect
	case "dmp":
		c.Mode = ModeDMP
	case "dhp":
		c.Mode = ModeDHP
	case "dualpath":
		c.Mode = ModeDualPath
	case "enhanced":
		c = EnhancedDMPConfig()
	default:
		return c, fmt.Errorf("unknown mode %q (want baseline, perfect, dmp, dhp, dualpath or enhanced)", name)
	}
	return c, nil
}

// Canonical returns a semantically equivalent Config normalized for use
// as a cache key. Config is a flat comparable struct, so the canonical
// value can index a map directly; two configurations that would drive
// bit-identical simulations canonicalize to the same value. It
//
//   - spells out defaulted predictor names ("" is the perceptron, and ""
//     confidence is JRS — the same choices Machine construction makes);
//   - folds the dynamic-predication knobs to their zero values for modes
//     that never enter an episode (baseline and perfect-CBP consult none
//     of them — they predicate no class of region, and every other knob
//     is read only inside an episode);
//   - folds CheckRetirement, which changes wall-clock but never a single
//     Stats bit. The experiment drivers always check; the store
//     carries it beside the canonical Config (Meta.Check);
//   - folds the SamplePoint to zero when SampleMode is off (an exact
//     run never reads it) and spells out its defaults when it is on
//     (a defaulted and an explicitly default-parameterised sampled run
//     are the same simulation). SampleMode itself is never
//     folded: a sampled result must never alias the exact result for the
//     same machine configuration in the result cache;
//   - spells out the defaulted CFMSource ("" is "annotated") and folds
//     the merge-predictor knobs for every mode but DMP (the predictor is
//     only ever built there — DHP and dual-path run from annotations
//     regardless of source, see Config.CFMSource). On DMP it folds
//     MergeTableSize to zero for the annotated source (no predictor is
//     built) and from zero to the internal/merge default capacity for
//     dynamic/hybrid (so a defaulted and an explicitly default-sized
//     predictor share one cache entry).
//
// ConfidenceName is deliberately NOT folded for any mode: every fetched
// conditional branch consults the estimator and the LowConfCorrect /
// LowConfWrong counters differ between estimators even on the baseline.
//
// The raw machine-geometry and run-limit fields are pass-through key
// components: every distinct value is a distinct simulation, so there is
// nothing for Canonical to normalize and they ride along verbatim in the
// returned copy. The dmpvet canonical analyzer holds this list against
// the struct — a new Config field must either be normalized above or be
// added here with the same justification.
//
//dmp:nocanon FetchWidth MaxBrPerFetch PipelineDepth FetchQueueSize -- pass-through front-end geometry
//dmp:nocanon ROBSize IssueWidth RetireWidth LoadPorts StoreBufferSize SelectUopsPerCycle -- pass-through core geometry
//dmp:nocanon MaxInsts MaxCycles -- pass-through run limits
func (c Config) Canonical() Config {
	if c.PredictorName == "" {
		c.PredictorName = "perceptron"
	}
	if c.ConfidenceName == "" {
		c.ConfidenceName = "jrs"
	}
	if c.CFMSource == "" {
		c.CFMSource = "annotated"
	}
	if c.Mode == ModeBaseline || c.Mode == ModePerfect {
		c.MultipleCFM = false
		c.EarlyExit = false
		c.MultipleDiverge = false
		c.EnableLoopDiverge = false
		c.KeepAlternateGHR = false
	}
	if c.Mode != ModeDMP {
		c.CFMSource = "annotated"
	}
	if c.CFMSource == "annotated" {
		c.MergeTableSize = 0
	} else if c.MergeTableSize == 0 {
		c.MergeTableSize = merge.DefaultConfig().TableSize
	}
	if c.SampleMode {
		c.SamplePoint = c.SamplePoint.WithDefaults()
	} else {
		c.SamplePoint = SamplePoint{}
	}
	c.CheckRetirement = false
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("core: widths must be positive")
	case c.ROBSize < 8:
		return fmt.Errorf("core: ROB too small")
	case c.PipelineDepth < 5:
		return fmt.Errorf("core: pipeline depth must be at least 5")
	case c.MaxBrPerFetch <= 0:
		return fmt.Errorf("core: MaxBrPerFetch must be positive")
	case c.StoreBufferSize <= 0 || c.LoadPorts <= 0:
		return fmt.Errorf("core: memory resources must be positive")
	case c.SelectUopsPerCycle <= 0:
		return fmt.Errorf("core: SelectUopsPerCycle must be positive")
	case c.FetchQueueSize < c.FetchWidth:
		return fmt.Errorf("core: fetch queue smaller than fetch width")
	}
	switch c.PredictorName {
	case "", "perceptron", "gshare", "bimodal", "hybrid":
	default:
		return fmt.Errorf("core: unknown predictor %q", c.PredictorName)
	}
	switch c.ConfidenceName {
	case "", "jrs", "perfect", "always-low", "never-low":
	default:
		return fmt.Errorf("core: unknown confidence estimator %q", c.ConfidenceName)
	}
	switch c.CFMSource {
	case "", "annotated", "dynamic", "hybrid":
	default:
		return fmt.Errorf("core: unknown CFM source %q (want annotated, dynamic or hybrid)", c.CFMSource)
	}
	if c.MergeTableSize < 0 {
		return fmt.Errorf("core: MergeTableSize must be non-negative")
	}
	if c.SampleMode {
		if err := c.SamplePoint.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// frontEndDelay is the number of cycles an instruction spends between
// fetch and rename; together with the execute/resolve path it makes the
// minimum branch misprediction penalty equal PipelineDepth.
func (c *Config) frontEndDelay() int {
	d := c.PipelineDepth - 5 // fetch, rename, issue, execute, resolve
	if d < 0 {
		d = 0
	}
	return d
}
