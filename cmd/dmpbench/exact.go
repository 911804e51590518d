package main

import (
	"fmt"
	"time"

	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/exp"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// exactJob runs every benchmark under the baseline and the enhanced DMP
// machine, one exact simulation at a time, straight through core.New and
// Machine.Run with the retirement checker on. The seed picks the
// reference input's data; the annotations still come from the training
// input, as exp.Annotated makes them.
type exactJob struct {
	seededSet
	order []int // seed-permuted indices into runs
	runs  []exactRun
}

type exactRun struct {
	prog int // index into progs
	cfg  core.Config
	want *core.Stats // first round's result; later rounds must match it
}

// seededSet is the program set of the exact and the sampled workload:
// each benchmark's reference program at one scale, with its data made
// from the seed.
type seededSet struct {
	scale   int
	benches []string
	data    uint64 // reference-input data seed
	progs   []seededProg
}

// seededProg is a reference program built from a seeded data set, with
// its architectural instruction count.
type seededProg struct {
	benchProg
	insts uint64
}

func (s *seededSet) setup(sp *telemetry.Span) error {
	var err error
	s.progs, err = buildSeeded(s.benches, s.scale, s.data, sp)
	return err
}

func (s *seededSet) probeSet() probeSet {
	ps := probeSet{scale: s.scale, benches: s.benches}
	for _, p := range s.progs {
		ps.progs = append(ps.progs, p.benchProg)
	}
	return ps
}

// exactScale sizes the exact simulations: ~175k instructions each, long
// enough for steady-state throughput, short enough that a run makes
// four rounds and reports their median rather than the mean of two.
const exactScale = 5

func newExactJob(seed uint64, smoke bool) job {
	j := &exactJob{seededSet: seededSet{scale: exactScale, benches: workload.Names(), data: dataSeed(seed)}}
	if smoke {
		j.scale, j.benches = 1, j.benches[:2]
	}
	for i := range j.benches {
		for _, cfg := range []core.Config{core.DefaultConfig(), core.EnhancedDMPConfig()} {
			cfg.CheckRetirement = true
			j.runs = append(j.runs, exactRun{prog: i, cfg: cfg})
		}
	}
	j.order = permute(indices(len(j.runs)), seed)
	return j
}

func (j *exactJob) round(rc *roundCtx) error {
	for _, i := range j.order {
		run := &j.runs[i]
		p := j.progs[run.prog]
		t0 := time.Now()
		sp := rc.span.Child("core.New", "core")
		m, err := core.New(p.p, run.cfg)
		sp.End()
		var st *core.Stats
		if err == nil {
			sp = rc.span.Child("core.Run", "core")
			st, err = m.Run()
			sp.End()
		}
		d := time.Since(t0)
		if err == nil {
			rc.simulated(st.RetiredInsts)
			err = checkExact(st, p.insts, run.want)
			if run.want == nil {
				run.want = st.Clone() // a copy, so the machine can be freed
			}
		}
		if err != nil {
			err = fmt.Errorf("%s under %v: %w", p.bench, run.cfg.Mode, err)
		}
		rc.op(d, err)
	}
	return nil
}

// checkExact checks one exact run: it reached the program's halt,
// retired exactly the instructions the emulator executes, and, after the
// first round, repeated the first round's Stats in every simulated
// field.
func checkExact(st *core.Stats, insts uint64, want *core.Stats) error {
	if !st.HaltRetired {
		return fmt.Errorf("did not retire the halt")
	}
	if st.RetiredInsts != insts {
		return fmt.Errorf("retired %d instructions, the emulator executes %d", st.RetiredInsts, insts)
	}
	if want != nil && !sameSimulated(st, want) {
		return fmt.Errorf("Stats differ from the first round's")
	}
	return nil
}

// sameSimulated compares two Stats in every field but host wall time.
func sameSimulated(a, b *core.Stats) bool {
	x, y := *a, *b
	x.WallSeconds, y.WallSeconds = 0, 0
	return x == y
}

// buildSeeded builds each bench's reference program at scale from the
// data seed and copies onto it the diverge annotations exp profiled on
// the training input: exp.Annotated's train/ref method with a seeded
// reference input. The code image does not depend on the data, so the
// annotations transfer by PC. exp's program cache is cleared first so
// each call pays the training profile.
func buildSeeded(benches []string, scale int, data uint64, sp *telemetry.Span) ([]seededProg, error) {
	exp.Reset()
	progs := make([]seededProg, 0, len(benches))
	for _, b := range benches {
		s := sp.Child("exp.Annotated", "exp")
		ann, err := exp.Annotated(b, scale)
		s.End()
		if err != nil {
			return nil, err
		}
		w, err := workload.ByName(b)
		if err != nil {
			return nil, err
		}
		p := w.Build(workload.BuildConfig{Seed: data, Scale: scale})
		for _, pc := range ann.DivergePCs() {
			p.MarkDiverge(pc, ann.Diverge[pc])
		}
		n, err := archInsts(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b, err)
		}
		progs = append(progs, seededProg{benchProg{b, p}, n})
	}
	return progs, nil
}

// archInsts runs p to its halt on the emulator and returns the number of
// instructions it executed.
func archInsts(p *prog.Program) (uint64, error) {
	e := emu.New(p)
	n, err := e.Run(0)
	if err == nil && !e.Halted {
		err = fmt.Errorf("emulator stopped before the halt")
	}
	return n, err
}

// dataSeed derives a reference-input data seed from the benchmark seed;
// zero is avoided because workload.BuildConfig maps it to RefSeed.
func dataSeed(seed uint64) uint64 {
	r := rng{seed ^ 0x6461746173656564}
	return r.next() | 1
}
