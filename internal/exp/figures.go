package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dmp/internal/core"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/sched"
	"dmp/internal/workload"
)

// Table2 renders the baseline machine configuration (paper Table 2).
func Table2(Options) (*Table, error) {
	cfg := core.DefaultConfig()
	t := &Table{ID: "table2", Title: "Baseline processor configuration", Header: []string{"component", "setting"}}
	t.AddRow("front end", fmt.Sprintf("%d-wide fetch, <=%d cond branches/cycle, ends at first taken branch", cfg.FetchWidth, cfg.MaxBrPerFetch))
	t.AddRow("I-cache", "64KB, 2-way, 2-cycle, 64B lines")
	t.AddRow("direction predictor", "64KB perceptron (1021 entries, 59-bit history)")
	t.AddRow("BTB / RAS / ITC", "4K-entry 4-way BTB; 64-entry RAS; 64K-entry indirect target cache")
	t.AddRow("pipeline", fmt.Sprintf("%d stages (minimum misprediction penalty)", cfg.PipelineDepth))
	t.AddRow("window", fmt.Sprintf("%d-entry ROB; %d-wide issue/retire", cfg.ROBSize, cfg.IssueWidth))
	t.AddRow("D-cache", "64KB, 4-way, 2-cycle, 64B lines")
	t.AddRow("L2", "1MB unified, 8-way, 10-cycle")
	t.AddRow("memory", "300-cycle minimum latency")
	t.AddRow("confidence estimator", "1KB JRS (2K entries; 5-bit history — scale adaptation, paper uses 12, see DESIGN.md)")
	return t, nil
}

// Table3 reproduces the baseline characterisation: base IPC, retired
// instructions, branches and mispredictions per benchmark.
func Table3(o Options) (*Table, error) {
	o = o.norm()
	stats, err := runSuite(core.DefaultConfig(), o)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "table3", Title: "Baseline characteristics (paper Table 3)",
		Header: []string{"bench", "baseIPC", "insts", "branches", "mispredicts", "missrate%"}}
	for i, b := range o.Benchmarks {
		s := stats[i]
		t.AddRow(b, f2(s.IPC()), d(s.RetiredInsts), d(s.RetiredBranches),
			d(s.RetiredMispredicts), f2(100*s.MispredictRate()))
	}
	return t, nil
}

// Figure1 reproduces the wrong-path fetch decomposition: the percentage
// of all fetched instructions that were wrong-path control-dependent and
// wrong-path control-independent, on the baseline.
func Figure1(o Options) (*Table, error) {
	o = o.norm()
	stats, err := runSuite(core.DefaultConfig(), o)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig1", Title: "Wrong-path fetched instructions, baseline (paper Figure 1)",
		Header: []string{"bench", "%wrong-ctrl-dep", "%wrong-ctrl-indep", "%wrong-total"}}
	var cds, cis []float64
	for i, b := range o.Benchmarks {
		s := stats[i]
		tot := float64(s.FetchedInsts)
		cd := 100 * float64(s.FetchedWrongCD) / tot
		ci := 100 * float64(s.FetchedWrongCI) / tot
		cds, cis = append(cds, cd), append(cis, ci)
		t.AddRow(b, f1(cd), f1(ci), f1(cd+ci))
	}
	t.AddRow("amean", f1(amean(cds)), f1(amean(cis)), f1(amean(cds)+amean(cis)))
	t.Note = "paper: ~52% of fetches are wrong-path, ~63% of those control-independent"
	return t, nil
}

// Figure6 reproduces the misprediction taxonomy: mispredictions per
// thousand instructions split into simple-hammock diverge, complex
// diverge, and other complex branches. The per-benchmark profiling runs
// are independent, so they run concurrently under the global worker pool.
func Figure6(o Options) (*Table, error) {
	o = o.norm()
	t := &Table{ID: "fig6", Title: "Mispredicted branch taxonomy, MPKI (paper Figure 6)",
		Header: []string{"bench", "simple-hammock", "complex-diverge", "other", "total-mpki"}}
	mpkis := make([][3]float64, len(o.Benchmarks))
	ks := make([]float64, len(o.Benchmarks))
	errs := make([]error, len(o.Benchmarks))
	pool := sched.Shared(o.Parallel)
	var wg sync.WaitGroup
	for i, bench := range o.Benchmarks {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			pool.Acquire()
			defer pool.Release()
			// Attribute mispredictions on the reference input with the same
			// predictor family as the machine. profile.Run annotates its
			// argument in place (ClearDiverge + ref-derived MarkDiverge), so it
			// must run on a private build, never on the shared cached program —
			// see the sharing invariant in cache.go. The taxonomy below reads
			// the ref-derived marks, exactly as it always has: the training
			// annotations were cleared by this very profile pass before the
			// cache existed, so a fresh ref build is byte-identical (and
			// skips a now-useless training run).
			w, err := workload.ByName(bench)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", bench, err)
				return
			}
			p := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: o.Scale})
			rep, err := profile.Run(p, profile.DefaultOptions())
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", bench, err)
				return
			}
			for _, bs := range rep.Branches {
				cls := 2 // other
				if dv := p.DivergeAt(bs.PC); dv != nil {
					if dv.Class == prog.ClassSimpleHammock {
						cls = 0
					} else {
						cls = 1
					}
				}
				mpkis[i][cls] += float64(bs.Mispredicts)
			}
			ks[i] = 1000 / float64(rep.TotalInsts)
		}(i, bench)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, bench := range o.Benchmarks {
		mpki, k := mpkis[i], ks[i]
		t.AddRow(bench, f2(mpki[0]*k), f2(mpki[1]*k), f2(mpki[2]*k),
			f2((mpki[0]+mpki[1]+mpki[2])*k))
	}
	t.Note = "paper: diverge branches cover ~57% of mispredictions, simple hammocks ~9%; mcf is hammock-dominated, gcc is 'other'"
	return t, nil
}

// improvementTable runs the baseline and each comparison configuration
// over the suite — all concurrently — and renders the % IPC improvement
// of every configuration over the baseline per benchmark, with a trailing
// amean row. Figures 7 and 9 and the dual-path table share this exact
// shape.
func improvementTable(id, title string, names []string, cfgs []core.Config, o Options) (*Table, error) {
	o = o.norm()
	all, err := runSuites(append([]core.Config{core.DefaultConfig()}, cfgs...), o)
	if err != nil {
		return nil, err
	}
	base, rest := all[0], all[1:]
	t := &Table{ID: id, Title: title, Header: append([]string{"bench"}, names...)}
	cols := make([][]float64, len(cfgs))
	for bi, bench := range o.Benchmarks {
		row := []string{bench}
		for ci := range cfgs {
			imp := pctImp(rest[ci][bi], base[bi])
			cols[ci] = append(cols[ci], imp)
			row = append(row, f1(imp))
		}
		t.AddRow(row...)
	}
	meanRow := []string{"amean"}
	for ci := range cols {
		meanRow = append(meanRow, f1(amean(cols[ci])))
	}
	t.AddRow(meanRow...)
	return t, nil
}

// figure7Configs are the five machines compared in Figure 7.
func figure7Configs() (names []string, cfgs []core.Config) {
	dhpJ := core.DHPConfig()
	dhpP := core.DHPConfig()
	dhpP.ConfidenceName = "perfect"
	dmpJ := core.DMPConfig()
	dmpP := core.DMPConfig()
	dmpP.ConfidenceName = "perfect"
	perf := core.DefaultConfig()
	perf.Mode = core.ModePerfect
	return []string{"DHP-jrs", "DHP-perf-conf", "diverge-jrs", "diverge-perf-conf", "perfect-cbp"},
		[]core.Config{dhpJ, dhpP, dmpJ, dmpP, perf}
}

// Figure7 reproduces the basic diverge-merge comparison: % IPC
// improvement over the baseline for DHP and basic DMP with real and
// perfect confidence, plus the perfect-predictor ceiling.
func Figure7(o Options) (*Table, error) {
	names, cfgs := figure7Configs()
	t, err := improvementTable("fig7", "% IPC improvement over baseline (paper Figure 7)", names, cfgs, o)
	if err == nil {
		t.Note = "paper (amean): DHP-jrs 2.8, DHP-perf 3.4, diverge-jrs 5.0, diverge-perf 19, perfect-cbp 48"
	}
	return t, err
}

// exitCaseTable renders the Table-1 exit-case distribution of a
// configuration (Figures 8 and 10).
func exitCaseTable(id, title string, cfg core.Config, o Options) (*Table, error) {
	o = o.norm()
	stats, err := runSuite(cfg, o)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title,
		Header: []string{"bench", "case1%", "case2%", "case3%", "case4%", "case5%", "case6%", "squashed%", "episodes"}}
	for i, b := range o.Benchmarks {
		s := stats[i]
		var tot float64
		for _, c := range s.ExitCases {
			tot += float64(c)
		}
		if tot == 0 {
			t.AddRow(b, "-", "-", "-", "-", "-", "-", "-", "0")
			continue
		}
		pct := func(c core.ExitCase) string { return f1(100 * float64(s.ExitCases[c]) / tot) }
		t.AddRow(b, pct(core.Exit1), pct(core.Exit2), pct(core.Exit3), pct(core.Exit4),
			pct(core.Exit5), pct(core.Exit6), f1(100*float64(s.ExitCases[0])/tot), d(s.Episodes))
	}
	return t, nil
}

// Figure8 is the exit-case distribution of the basic diverge-merge
// processor.
func Figure8(o Options) (*Table, error) {
	t, err := exitCaseTable("fig8", "Exit cases, basic DMP with JRS confidence (paper Figure 8)", core.DMPConfig(), o)
	if err == nil {
		t.Note = "paper: cases 1+2 dominate but fall under 40% for bzip2/gap/gzip; case 3 ~10%"
	}
	return t, err
}

// Figure9 reproduces the enhanced diverge-merge study: basic, +multiple
// CFM points, +early exit, +multiple diverge branches (cumulative).
func Figure9(o Options) (*Table, error) {
	mk := func(mcfm, eexit, mdb bool) core.Config {
		c := core.DMPConfig()
		c.MultipleCFM = mcfm
		c.EarlyExit = eexit
		c.MultipleDiverge = mdb
		return c
	}
	names := []string{"basic-diverge", "enhanced-mcfm", "enhanced-mcfm-eexit", "enhanced-mcfm-eexit-mdb"}
	cfgs := []core.Config{mk(false, false, false), mk(true, false, false), mk(true, true, false), mk(true, true, true)}
	t, err := improvementTable("fig9", "% IPC improvement over baseline, enhancements (paper Figure 9)", names, cfgs, o)
	if err == nil {
		t.Note = "paper: enhancements are cumulative; all three give 10.8% average"
	}
	return t, err
}

// Figure10 is the exit-case distribution of the enhanced diverge-merge
// processor.
func Figure10(o Options) (*Table, error) {
	t, err := exitCaseTable("fig10", "Exit cases, enhanced DMP (paper Figure 10)", core.EnhancedDMPConfig(), o)
	if err == nil {
		t.Note = "paper: early exit cuts case 3 from ~10% to ~3%"
	}
	return t, err
}

// Figure11 reproduces the pipeline-flush reduction of the enhanced DMP
// over the baseline.
func Figure11(o Options) (*Table, error) {
	o = o.norm()
	all, err := runSuites([]core.Config{core.DefaultConfig(), core.EnhancedDMPConfig()}, o)
	if err != nil {
		return nil, err
	}
	base, enh := all[0], all[1]
	t := &Table{ID: "fig11", Title: "Reduction in pipeline flushes, enhanced DMP (paper Figure 11)",
		Header: []string{"bench", "base-flushes", "dmp-flushes", "reduction%"}}
	var reds []float64
	for i, b := range o.Benchmarks {
		red := 0.0
		if base[i].Flushes > 0 {
			red = 100 * (1 - float64(enh[i].Flushes)/float64(base[i].Flushes))
		}
		reds = append(reds, red)
		t.AddRow(b, d(base[i].Flushes), d(enh[i].Flushes), f1(red))
	}
	t.AddRow("amean", "", "", f1(amean(reds)))
	t.Note = "paper: 31% average flush reduction; >40% on bzip2/parser/twolf/vpr/mesa/fma3d"
	return t, nil
}

// Figure12 reproduces the fetched/executed instruction comparison:
// enhanced DMP fetches fewer instructions (no control-independent
// refetch) but executes more (FALSE-predicate work plus inserted uops).
func Figure12(o Options) (*Table, error) {
	o = o.norm()
	all, err := runSuites([]core.Config{core.DefaultConfig(), core.EnhancedDMPConfig()}, o)
	if err != nil {
		return nil, err
	}
	base, enh := all[0], all[1]
	t := &Table{ID: "fig12", Title: "Fetched and executed instructions (paper Figure 12)",
		Header: []string{"bench", "base-fetched", "dmp-fetched", "base-exec", "dmp-exec", "dmp-extra-uops", "dmp-selects"}}
	var fr, er []float64
	for i, b := range o.Benchmarks {
		fr = append(fr, 100*(1-float64(enh[i].FetchedInsts)/float64(base[i].FetchedInsts)))
		er = append(er, 100*(float64(enh[i].CommittedWork())/float64(base[i].CommittedWork())-1))
		t.AddRow(b, d(base[i].FetchedInsts), d(enh[i].FetchedInsts),
			d(base[i].CommittedWork()), d(enh[i].CommittedWork()),
			d(enh[i].RetiredMarkers), d(enh[i].RetiredSelects))
	}
	t.Note = fmt.Sprintf("fetch reduction amean %.1f%% (paper 18%%); executed increase amean %.1f%% (paper 9%%)",
		amean(fr), amean(er))
	return t, nil
}

// sweepTable runs base/DHP/enhanced-DMP over a parameter sweep and
// reports average IPC per point (Figures 13a and 13b). Every
// (point, machine) suite launches at once; the result cache folds sweep
// points that coincide with configurations other experiments already ran
// (the 512-entry window point of Figure 13a is exactly the Table-2
// machines).
func sweepTable(id, title, param string, values []int, apply func(*core.Config, int), o Options) (*Table, error) {
	o = o.norm()
	t := &Table{ID: id, Title: title,
		Header: []string{param, "base-IPC", "DHP-IPC", "enhanced-DMP-IPC", "DMP-gain%"}}
	makers := []func() core.Config{core.DefaultConfig, core.DHPConfig, core.EnhancedDMPConfig}
	cfgs := make([]core.Config, 0, len(values)*len(makers))
	for _, v := range values {
		for _, mk := range makers {
			c := mk()
			apply(&c, v)
			cfgs = append(cfgs, c)
		}
	}
	all, err := runSuites(cfgs, o)
	if err != nil {
		return nil, err
	}
	for vi, v := range values {
		base, dhp, dmp := all[vi*3], all[vi*3+1], all[vi*3+2]
		var bi, hi, di, gain []float64
		for i := range base {
			bi = append(bi, base[i].IPC())
			hi = append(hi, dhp[i].IPC())
			di = append(di, dmp[i].IPC())
			gain = append(gain, pctImp(dmp[i], base[i]))
		}
		t.AddRow(fmt.Sprintf("%d", v), f3(amean(bi)), f3(amean(hi)), f3(amean(di)), f1(amean(gain)))
	}
	return t, nil
}

// Figure13a sweeps the instruction window (128/256/512-entry ROB).
func Figure13a(o Options) (*Table, error) {
	t, err := sweepTable("fig13a", "Effect of instruction window size (paper Figure 13a)", "window",
		[]int{128, 256, 512}, func(c *core.Config, v int) { c.ROBSize = v }, o)
	if err == nil {
		t.Note = "paper: DMP gain grows with window size (6.9% / 9.4% / 10.8%)"
	}
	return t, err
}

// Figure13b sweeps the pipeline depth (10/20/30 stages, 256-entry ROB).
func Figure13b(o Options) (*Table, error) {
	t, err := sweepTable("fig13b", "Effect of pipeline depth (paper Figure 13b)", "depth",
		[]int{10, 20, 30}, func(c *core.Config, v int) { c.PipelineDepth = v; c.ROBSize = 256 }, o)
	if err == nil {
		t.Note = "paper: DMP gain grows with depth (3.3% / 6.8% / 9.4%)"
	}
	return t, err
}

// DualPath reproduces the Section 5.3 comparison: selective dual-path
// vs. DHP vs. enhanced DMP, as % IPC improvement over the baseline.
func DualPath(o Options) (*Table, error) {
	dual := core.DefaultConfig()
	dual.Mode = core.ModeDualPath
	t, err := improvementTable("dualpath", "Selective dual-path vs DHP vs enhanced DMP (paper Section 5.3)",
		[]string{"dual-path%", "DHP%", "enhanced-DMP%"},
		[]core.Config{dual, core.DHPConfig(), core.EnhancedDMPConfig()}, o)
	if err == nil {
		t.Note = "paper: dual-path 2.6%, DHP 2.8%, DMP 10.8%"
	}
	return t, err
}

// LoopDiverge evaluates the diverge loop branch extension (Section 2.7.4
// future work, implemented here): enhanced DMP with and without
// predication of marked backward branches. The loop-diverge run simulates
// a separately annotated program (profile.Options.IncludeLoops), which
// RunOne picks from the config's EnableLoopDiverge bit. The baseline and
// enhanced suites resolve from the result cache when other experiments
// already ran them.
func LoopDiverge(o Options) (*Table, error) {
	o = o.norm()
	loops := core.EnhancedDMPConfig()
	loops.EnableLoopDiverge = true
	all, err := runSuites([]core.Config{core.DefaultConfig(), core.EnhancedDMPConfig(), loops}, o)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "loopdiverge", Title: "Diverge loop branches (paper Section 2.7.4, future work)",
		Header: []string{"bench", "base-IPC", "enhanced%", "enhanced+loops%", "loop-episodes"}}
	for i, bench := range o.Benchmarks {
		base, enh, lp := all[0][i], all[1][i], all[2][i]
		t.AddRow(bench, f3(base.IPC()), f1(pctImp(enh, base)), f1(pctImp(lp, base)), d(lp.Episodes-enh.Episodes))
	}
	t.Note = "backward (loop) diverge branches predicated like wish loops; episode delta counts the extra loop episodes"
	return t, nil
}

// All lists the experiment generators by id.
var All = map[string]func(Options) (*Table, error){
	"table2":      Table2,
	"table3":      Table3,
	"fig1":        Figure1,
	"fig6":        Figure6,
	"fig7":        Figure7,
	"fig8":        Figure8,
	"fig9":        Figure9,
	"fig10":       Figure10,
	"fig11":       Figure11,
	"fig12":       Figure12,
	"fig13a":      Figure13a,
	"fig13b":      Figure13b,
	"dualpath":    DualPath,
	"loopdiverge": LoopDiverge,
	"mergepred":   MergePred,
	"sampling":    Sampling,
}

// IDs returns the experiment ids in presentation order.
func IDs() []string {
	ids := []string{"table2", "table3", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b", "dualpath", "loopdiverge", "mergepred", "sampling"}
	if len(ids) != len(All) {
		keys := make([]string, 0, len(All))
		//dmp:allow nondeterminism -- keys are sorted on the next line
		for k := range All {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		panic(fmt.Sprintf("exp: id list drift: %v", keys))
	}
	return ids
}

// Resolve checks a request's experiment ids: a lone "all" expands to
// every id in presentation order, and otherwise each id must be known.
func Resolve(ids []string) ([]string, error) {
	if len(ids) == 1 && ids[0] == "all" {
		return IDs(), nil
	}
	known := strings.Join(IDs(), " ")
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids: give ids or \"all\" (known: %s)", known)
	}
	for _, id := range ids {
		if All[id] == nil {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, known)
		}
	}
	return ids, nil
}
