// Package diff is the differential verification harness for generated
// programs: it sweeps internal/gen's lint-clean random programs through
// lint, the golden-model emulator, the full machine-configuration
// matrix, and the sampled-simulation accounting invariants. It lives in
// a subpackage so internal/gen itself (which internal/workload imports)
// does not depend on internal/core.
package diff

import (
	"fmt"
	"time"

	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/lint"
	"dmp/internal/prog"
	"dmp/internal/sample"
	"dmp/internal/telemetry"
)

// Divergence is one differential-harness finding. Stage identifies which
// leg failed:
//
//	lint     — a generated program drew a lint diagnostic (generator bug)
//	emu      — a lint-clean program faulted or failed to halt on the
//	           golden-model emulator (lint-soundness counterexample)
//	machine  — core.New/Run returned an error
//	retired  — retired-instruction count differs from the emulator
//	reg      — a committed architectural register differs
//	mem      — a committed memory word differs
//	sample   — a sampled-run accounting invariant broke
type Divergence struct {
	Seed   uint64 // structure seed (0 when the caller verified a bare program)
	Stage  string
	Config string // machine configuration name, when one was involved
	Detail string
}

func (d *Divergence) Error() string {
	if d.Config != "" {
		return fmt.Sprintf("seed %d: %s [%s]: %s", d.Seed, d.Stage, d.Config, d.Detail)
	}
	return fmt.Sprintf("seed %d: %s: %s", d.Seed, d.Stage, d.Detail)
}

// NamedConfig pairs a machine configuration with a stable name for
// reporting.
type NamedConfig struct {
	Name string
	Cfg  core.Config
}

// DiffConfigs is the default cross-validation matrix: the baseline, the
// paper's DMP variants across all three CFM sources (annotated
// annotations, the runtime merge-point predictor, and hybrid), loop
// diverge on, and the dual-path and DHP machines. Every entry must
// retire the exact architectural state the emulator computes.
func DiffConfigs() []NamedConfig {
	enhDyn := core.EnhancedDMPConfig()
	enhDyn.CFMSource = "dynamic"
	enhHyb := core.EnhancedDMPConfig()
	enhHyb.CFMSource = "hybrid"
	enhLoops := core.EnhancedDMPConfig()
	enhLoops.EnableLoopDiverge = true
	dual := core.DefaultConfig()
	dual.Mode = core.ModeDualPath
	return []NamedConfig{
		{"baseline", core.DefaultConfig()},
		{"dmp", core.DMPConfig()},
		{"enhanced", core.EnhancedDMPConfig()},
		{"enh-dynamic", enhDyn},
		{"enh-hybrid", enhHyb},
		{"enh-loops", enhLoops},
		{"dualpath", dual},
		{"dhp", core.DHPConfig()},
	}
}

// DiffOptions tunes Verify.
type DiffOptions struct {
	// Configs is the machine matrix; nil selects DiffConfigs.
	Configs []NamedConfig
	// MaxSteps bounds the emulator reference run; 0 selects 5M.
	MaxSteps uint64
	// Sample also runs the sampled-simulation leg (enhanced config at
	// legPoint) and checks its accounting invariants against the
	// exact reference. It is skipped silently when the program is too
	// short to sample at that point.
	Sample bool
}

// legPoint is the sampled leg's operating point, scaled down for
// generated program lengths.
var legPoint = core.SamplePoint{SamplePeriod: 1200, SampleInterval: 200, SampleWarmup: 256}

func (o DiffOptions) norm() DiffOptions {
	if o.Configs == nil {
		o.Configs = DiffConfigs()
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 5_000_000
	}
	return o
}

// Verify sweeps one program through the differential legs: lint (any
// diagnostic at all is a finding), the golden-model emulator (must halt
// cleanly within MaxSteps), every machine configuration in the matrix
// (retired-instruction count, all 32 architectural registers, and every
// touched memory word must match the emulator exactly), and optionally
// the sampled-simulation accounting invariants. It returns nil when
// every leg agrees.
func Verify(p *prog.Program, o DiffOptions) *Divergence {
	o = o.norm()
	t0 := time.Now()
	defer func() { mVerifySeconds.Observe(time.Since(t0).Seconds()) }()
	div := verify(p, o)
	if div == nil {
		mSeedsVerified.Inc()
	} else {
		mDivergences.Inc()
		if tel := telemetry.Active(); tel != nil {
			tel.Feed().Emit(telemetry.Event{Kind: "diff", Name: div.Stage,
				N: mSeedsVerified.Value(), Msg: div.Error()})
		}
	}
	return div
}

// verify is the uninstrumented sweep behind Verify.
func verify(p *prog.Program, o DiffOptions) *Divergence {

	// Leg 1: lint. Generated programs are diagnostic-clean by
	// construction, warnings included.
	if ds := lint.Check(p, lint.Options{}); len(ds) > 0 {
		return &Divergence{Stage: "lint", Detail: fmt.Sprintf("%d diagnostic(s):\n%s", len(ds), ds)}
	}

	// Leg 2: the functional emulator is the reference semantics; a
	// lint-clean program faulting here breaks the soundness contract.
	ref := emu.New(p)
	if _, err := ref.Run(o.MaxSteps); err != nil {
		return &Divergence{Stage: "emu", Detail: err.Error()}
	}
	if !ref.Halted {
		return &Divergence{Stage: "emu", Detail: fmt.Sprintf("did not halt within %d steps", o.MaxSteps)}
	}

	// Leg 3: every machine configuration must retire exactly the
	// emulator's architectural state.
	for _, nc := range o.Configs {
		m, err := core.New(p, nc.Cfg)
		if err != nil {
			return &Divergence{Stage: "machine", Config: nc.Name, Detail: err.Error()}
		}
		st, err := m.Run()
		if err != nil {
			return &Divergence{Stage: "machine", Config: nc.Name, Detail: err.Error()}
		}
		if !st.HaltRetired {
			return &Divergence{Stage: "machine", Config: nc.Name, Detail: "machine did not retire HALT"}
		}
		if st.RetiredInsts != ref.Count {
			return &Divergence{Stage: "retired", Config: nc.Name,
				Detail: fmt.Sprintf("retired %d, emulator %d", st.RetiredInsts, ref.Count)}
		}
		for r := 0; r < isa.NumRegs; r++ {
			if got, want := m.CommittedReg(isa.Reg(r)), ref.Reg(isa.Reg(r)); got != want {
				return &Divergence{Stage: "reg", Config: nc.Name,
					Detail: fmt.Sprintf("r%d = %d, want %d", r, got, want)}
			}
		}
		var memDiv *Divergence
		ref.Mem.Each(func(addr, val uint64) {
			if memDiv != nil {
				return
			}
			if got := m.CommittedMem(addr); got != val {
				memDiv = &Divergence{Stage: "mem", Config: nc.Name,
					Detail: fmt.Sprintf("mem[%#x] = %d, want %d", addr, got, val)}
			}
		})
		if memDiv != nil {
			return memDiv
		}
	}

	// Leg 4 (optional): sampled-vs-exact accounting invariants. The
	// sampled estimator is statistical in IPC but exact in accounting:
	// it must see the true instruction count, extrapolate to exactly the
	// reference retirement, and its detailed-interval sums must tally.
	if o.Sample && ref.Count >= 2048+3*legPoint.SamplePeriod {
		cfg := core.EnhancedDMPConfig()
		cfg.SampleMode = true
		cfg.SamplePoint = legPoint
		res, err := sample.Run(p, cfg, sample.Options{Sequential: true})
		if err != nil {
			return &Divergence{Stage: "sample", Detail: err.Error()}
		}
		if res.TotalInsts != ref.Count {
			return &Divergence{Stage: "sample",
				Detail: fmt.Sprintf("TotalInsts %d, emulator %d", res.TotalInsts, ref.Count)}
		}
		if res.Extrapolated == nil || res.Extrapolated.RetiredInsts != ref.Count {
			got := uint64(0)
			if res.Extrapolated != nil {
				got = res.Extrapolated.RetiredInsts
			}
			return &Divergence{Stage: "sample",
				Detail: fmt.Sprintf("extrapolated retired %d, emulator %d", got, ref.Count)}
		}
		if !res.Extrapolated.HaltRetired {
			return &Divergence{Stage: "sample", Detail: "extrapolated stats did not retire HALT"}
		}
		if err := res.Check(); err != nil {
			return &Divergence{Stage: "sample", Detail: err.Error()}
		}
	}
	return nil
}

// VerifySeed generates the program for one seed under base (the seed
// overrides base.Seed) and verifies it, stamping the seed into any
// finding so it is replayable with `dmpgen -seed`.
func VerifySeed(seed uint64, base gen.Options, o DiffOptions) *Divergence {
	base.Seed = seed
	base.DataSeed = 0 // derive from seed
	if div := Verify(gen.Generate(base), o); div != nil {
		div.Seed = seed
		return div
	}
	return nil
}
