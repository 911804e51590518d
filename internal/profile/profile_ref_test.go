package profile

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dmp/internal/bpred"
	"dmp/internal/emu"
	"dmp/internal/gen"
	"dmp/internal/isa"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

// refRun is the profiler as first written: pass 1 records the whole
// run's PC trace, call depths and branch instances, and pass 2 reads
// each sampled instance's window out of the trace. It is kept as the
// reference the streaming Run must match exactly.
func refRun(p *prog.Program, opts Options) (*Report, error) {
	if opts.MaxDist <= 0 || opts.ReconvergeFrac <= 0 {
		return nil, fmt.Errorf("profile: invalid options (use DefaultOptions)")
	}
	pred := bpred.NewPerceptron(bpred.DefaultPerceptronConfig())

	type bstat struct {
		execs, taken, misp uint64
	}
	stats := map[uint64]*bstat{}
	var trace []uint64
	var depth []int32
	type instance struct {
		branchPC uint64
		taken    bool
		index    int // position in trace of the instruction after the branch
	}
	var instances []instance

	e := emu.New(p)
	var hist bpred.GHR
	var totalBr, totalMisp uint64
	var curDepth int32
	err := e.RunFunc(opts.MaxInsts, func(s emu.Step) bool {
		trace = append(trace, s.PC)
		depth = append(depth, curDepth)
		switch s.Inst.Op {
		case isa.CALL, isa.CALLR:
			curDepth++
		case isa.RET:
			curDepth--
		}
		if s.Inst.Op == isa.BR {
			st := stats[s.PC]
			if st == nil {
				st = &bstat{}
				stats[s.PC] = st
			}
			st.execs++
			totalBr++
			if s.Taken {
				st.taken++
			}
			predicted := pred.Predict(s.PC, hist)
			pred.Update(s.PC, hist, s.Taken)
			if predicted != s.Taken {
				st.misp++
				totalMisp++
			}
			hist = hist.Push(s.Taken)
			instances = append(instances, instance{s.PC, s.Taken, len(trace)})
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("profile: emulation failed: %w", err)
	}

	cands := map[uint64]*candData{}
	for pc, st := range stats {
		if totalMisp > 0 && float64(st.misp) >= opts.MispredictShare*float64(totalMisp) && st.misp > 0 {
			cands[pc] = &candData{points: map[uint64]*cfmStat{}}
		}
	}

	seen := map[uint64]int{}
	serial := 0
	for _, inst := range instances {
		cd := cands[inst.branchPC]
		if cd == nil {
			continue
		}
		if inst.taken {
			if cd.takenSamples >= uint64(opts.SamplesPerBranch) {
				continue
			}
			cd.takenSamples++
		} else {
			if cd.ntSamples >= uint64(opts.SamplesPerBranch) {
				continue
			}
			cd.ntSamples++
		}
		serial++
		end := inst.index + opts.MaxDist
		if end > len(trace) {
			end = len(trace)
		}
		branchDepth := depth[inst.index-1]
		for i := inst.index; i < end; i++ {
			if depth[i] != branchDepth {
				continue
			}
			pc := trace[i]
			if seen[pc] == serial {
				continue
			}
			seen[pc] = serial
			cs := cd.points[pc]
			if cs == nil {
				cs = &cfmStat{}
				cd.points[pc] = cs
			}
			if inst.taken {
				cs.takenHits++
			} else {
				cs.ntHits++
			}
			cs.sumDist += uint64(i - inst.index + 1)
		}
	}

	cfg := prog.BuildCFG(p)
	p.ClearDiverge()
	report := &Report{TotalInsts: e.Count, TotalBranches: totalBr, TotalMispredicts: totalMisp}
	for pc, st := range stats {
		bs := BranchStat{PC: pc, Execs: st.execs, Taken: st.taken, Mispredicts: st.misp}
		if cd := cands[pc]; cd != nil {
			cfms, avgDist := selectCFMs(cfg, pc, cd, opts)
			if len(cfms) > 0 {
				bs.CFMs, bs.AvgDist = cfms, avgDist
				if _, isSimple := cfg.SimpleHammockJoin(pc); isSimple {
					bs.Class = prog.ClassSimpleHammock
				} else {
					bs.Class = prog.ClassComplexDiverge
				}
				thr := int(avgDist*1.5) + 8
				if thr > opts.MaxDist {
					thr = opts.MaxDist
				}
				p.MarkDiverge(pc, &prog.Diverge{CFMs: cfms, Class: bs.Class, ExitThreshold: thr, Loop: p.Code[pc].Target <= pc})
			}
		}
		report.Branches = append(report.Branches, bs)
	}
	sort.Slice(report.Branches, func(i, j int) bool {
		if report.Branches[i].Mispredicts != report.Branches[j].Mispredicts {
			return report.Branches[i].Mispredicts > report.Branches[j].Mispredicts
		}
		return report.Branches[i].PC < report.Branches[j].PC
	})
	return report, nil
}

// sameAsRef profiles two builds of one program, one through Run and one
// through refRun, and fails unless the reports agree field for field
// (AvgDist bit for bit) and the diverge tables are identical.
func sameAsRef(t *testing.T, name string, build func() *prog.Program, opts Options) {
	t.Helper()
	pGot, pWant := build(), build()
	got, errGot := Run(pGot, opts)
	want, errWant := refRun(pWant, opts)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		t.Fatalf("%s: error %v, reference %v", name, errGot, errWant)
	}
	if errWant != nil {
		return
	}
	if got.TotalInsts != want.TotalInsts || got.TotalBranches != want.TotalBranches ||
		got.TotalMispredicts != want.TotalMispredicts || len(got.Branches) != len(want.Branches) {
		t.Fatalf("%s: totals differ:\n got %s\nwant %s", name, got, want)
	}
	for i := range want.Branches {
		g, w := got.Branches[i], want.Branches[i]
		if g.PC != w.PC || g.Execs != w.Execs || g.Taken != w.Taken || g.Mispredicts != w.Mispredicts ||
			g.Class != w.Class || !reflect.DeepEqual(g.CFMs, w.CFMs) ||
			math.Float64bits(g.AvgDist) != math.Float64bits(w.AvgDist) {
			t.Fatalf("%s: branch row %d differs:\n got %+v\nwant %+v", name, i, g, w)
		}
	}
	if !reflect.DeepEqual(pGot.DivergePCs(), pWant.DivergePCs()) {
		t.Fatalf("%s: diverge PCs %v, reference %v", name, pGot.DivergePCs(), pWant.DivergePCs())
	}
	for _, pc := range pWant.DivergePCs() {
		if g, w := pGot.DivergeAt(pc), pWant.DivergeAt(pc); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: diverge table at %d: %+v, reference %+v", name, pc, g, w)
		}
	}
}

func benchBuild(t *testing.T, bench string, scale int) func() *prog.Program {
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return func() *prog.Program {
		return w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: scale})
	}
}

// TestRunMatchesReference holds the streaming profiler to the
// trace-based reference over every benchmark, both CFM-source settings,
// bounded runs, the sampling and distance extremes, and
// generated programs.
func TestRunMatchesReference(t *testing.T) {
	t.Run("benchmarks", func(t *testing.T) {
		for _, scale := range []int{1, 3} {
			for _, bench := range workload.Names() {
				build := benchBuild(t, bench, scale)
				for _, postdom := range []bool{false, true} {
					opts := DefaultOptions()
					opts.UsePostDom = postdom
					sameAsRef(t, fmt.Sprintf("%s scale %d postdom=%t", bench, scale, postdom), build, opts)
				}
			}
		}
	})

	t.Run("scale40", func(t *testing.T) {
		if testing.Short() {
			t.Skip("long profiles")
		}
		for _, bench := range []string{"mcf", "gap"} {
			sameAsRef(t, bench+" scale 40", benchBuild(t, bench, 40), DefaultOptions())
		}
	})

	t.Run("bounds", func(t *testing.T) {
		for _, bench := range workload.Names() {
			for _, maxInsts := range []uint64{5000, 5037} {
				opts := DefaultOptions()
				opts.MaxInsts = maxInsts
				sameAsRef(t, fmt.Sprintf("%s max-insts=%d", bench, maxInsts), benchBuild(t, bench, 1), opts)
			}
			for _, samples := range []int{0, 1} {
				for _, postdom := range []bool{false, true} {
					opts := DefaultOptions()
					opts.SamplesPerBranch, opts.UsePostDom = samples, postdom
					sameAsRef(t, fmt.Sprintf("%s samples=%d postdom=%t", bench, samples, postdom), benchBuild(t, bench, 1), opts)
				}
			}
			for _, dist := range []int{1, 120} {
				opts := DefaultOptions()
				opts.MaxDist = dist
				sameAsRef(t, fmt.Sprintf("%s max-dist=%d", bench, dist), benchBuild(t, bench, 1), opts)
			}
		}
	})

	t.Run("open-window-at-end", func(t *testing.T) {
		// The hammock branch runs every few instructions and every
		// instance is sampled, so a bound a few instructions past one of
		// its instances ends the run inside that instance's window.
		const maxInsts = 5003
		p, brPC, _ := randomHammock(t, 1_000_000)
		e := emu.New(p)
		last := -1
		if err := e.RunFunc(maxInsts, func(s emu.Step) bool {
			if s.PC == brPC {
				last = int(e.Count) - 1
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if open := maxInsts - 1 - last; last < 0 || open >= DefaultOptions().MaxDist {
			t.Fatalf("last hammock instance at %d: the bound does not end inside its window", last)
		}
		opts := DefaultOptions()
		opts.MaxInsts = maxInsts
		sameAsRef(t, "hammock max-insts", func() *prog.Program { p, _, _ := randomHammock(t, 1_000_000); return p }, opts)
	})

	t.Run("gen", func(t *testing.T) {
		for seed := uint64(1); seed <= 50; seed++ {
			build := func() *prog.Program { return gen.Generate(gen.Options{Seed: seed, Iters: 200}) }
			sameAsRef(t, fmt.Sprintf("gen seed %d", seed), build, DefaultOptions())
		}
	})
}

// TestProfileMemoryFlatInScale bounds what one profile allocates: the
// profile keeps no per-instruction record, so a run ten times longer
// must not allocate twice as much. refRun's trace allocates in
// proportion to the run (9.6 times as much at scale 40 as at scale 4).
func TestProfileMemoryFlatInScale(t *testing.T) {
	alloc := func(scale int) uint64 {
		p := benchBuild(t, "mcf", scale)()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(p, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(4), alloc(40)
	t.Logf("profile.Run allocates %d B at scale 4, %d B at scale 40 (ratio %.2f)", small, large, float64(large)/float64(small))
	if large >= 2*small {
		t.Errorf("profile.Run allocates %d B at scale 40, %d B at scale 4: at least 2x, so it grows with the run", large, small)
	}
}
