package core

import (
	"fmt"
	"slices"
	"testing"

	"dmp/internal/isa"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

// TestStatsLawsTieCountersToEvidence runs DMP machines whose
// knob-driven conversions fire and machines whose knobs stay
// unexercised, and requires CheckStats to hold on each: EarlyExits > 0
// only where early exit fires on the recorded trajectory, MDBConversions
// > 0 only where MultipleDiverge is exercised, MergeEvictions > 0 only
// where the merge table filled. Both sides of each law must occur, so a
// conversion counted where none happened fails the test.
func TestStatsLawsTieCountersToEvidence(t *testing.T) {
	dynamic, enhDynamic := DMPConfig(), EnhancedDMPConfig()
	dynamic.CFMSource, enhDynamic.CFMSource = "dynamic", "dynamic"
	small := enhDynamic
	small.MergeTableSize = 1
	var fired, quiet [3]int // early exit, multiple diverge, merge eviction
	for _, bench := range []string{"mcf", "vpr", "parser"} {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		p := annotatedRef(t, w, 1)
		for _, cfg := range []Config{DMPConfig(), EnhancedDMPConfig(), dynamic, enhDynamic, small} {
			m, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkStats(t, m, st)
			ev := m.Evidence()
			for i, on := range []bool{st.EarlyExits > 0, st.MDBConversions > 0, st.MergeEvictions > 0} {
				if on {
					fired[i]++
				}
			}
			if st.Episodes > 0 && !(cfg.EarlyExit && ev.EarlyExit) {
				quiet[0]++
			}
			if st.Episodes > 0 && !ev.MultipleDiverge {
				quiet[1]++
			}
			if m.merge != nil && st.MergeTrainings > 0 && ev.MergePeak < m.merge.Size() {
				quiet[2]++
			}
		}
	}
	for i, law := range []string{"early exit", "multiple diverge", "merge eviction"} {
		if fired[i] == 0 || quiet[i] == 0 {
			t.Errorf("%s: %d runs counted conversions and %d predicating runs left the knob unexercised; want both",
				law, fired[i], quiet[i])
		}
	}
}

// entryOutcome is what one call of maybeEnterDP decided, and the
// evidence it left.
type entryOutcome struct {
	cfg      Config
	decision [4]uint64 // entered, conversions, merge hits, merge misses
	ev       Evidence
}

// enterAt builds a machine for cfg on a program with a simple hammock
// and a second region d at its loop branch, puts a live episode over the
// hammock in phase live (dpDead: none), and fetches the loop branch at
// low confidence.
func enterAt(t *testing.T, cfg Config, d prog.Diverge, live dpPhase) entryOutcome {
	t.Helper()
	p, hammockPC := randomHammockProg(10)
	loopPC := uint64(len(p.Code) - 3) // the loop's backward branch
	if p.Code[loopPC].Op != isa.BR {
		t.Fatalf("pc %d is %v, want the loop branch", loopPC, p.Code[loopPC].Op)
	}
	d.CFMs = []uint64{loopPC + 1}
	p.Diverge[hammockPC] = &prog.Diverge{CFMs: []uint64{p.Labels["join"]}, Class: prog.ClassSimpleHammock}
	p.Diverge[loopPC] = &d
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(pc uint64) *uop {
		u := m.arena.alloc(m.nextSeq(), pc, kindInst)
		u.inst = m.prog.At(pc)
		u.lowConf = true
		return u
	}
	if live != dpDead {
		if !m.maybeEnterDP(fetch(hammockPC)) {
			t.Fatal("the simple hammock entered no episode")
		}
		m.live.phase = live
		if live == dpExited {
			m.feEp = nil
		}
	}
	entered := uint64(0)
	if m.maybeEnterDP(fetch(loopPC)) {
		entered = 1
	}
	return entryOutcome{cfg.Canonical(), [4]uint64{entered, m.Stats.MDBConversions, m.Stats.MergeHits, m.Stats.MergeMisses}, m.ev}
}

// TestEntryEvidenceReadsNoKnob drives episode entry (maybeEnterDP) for
// simple-hammock and complex regions, on forward and loop branches, in
// every state a live episode can be in when the branch is fetched: none,
// on its predicted path, on its alternate path, exited. The machines are
// the baseline (which never has a live episode), DMP and DHP, with
// MultipleDiverge and EnableLoopDiverge off and on, and DMP under the
// hybrid CFM source. Machines of one CFM source must record the same
// evidence, and wherever two machines decide differently (enter,
// convert, ignore, or consult the merge predictor), each one's evidence
// must exclude the other.
func TestEntryEvidenceReadsNoKnob(t *testing.T) {
	var cfgs []Config
	for _, src := range []string{"annotated", "hybrid"} {
		for _, mode := range []Mode{ModeBaseline, ModeDMP, ModeDHP} {
			for _, mdb := range []bool{false, true} {
				for _, loops := range []bool{false, true} {
					cfg := DMPConfig()
					cfg.Mode, cfg.CFMSource, cfg.MultipleDiverge, cfg.EnableLoopDiverge = mode, src, mdb, loops
					if cfg = cfg.Canonical(); cfg.CFMSource == src && !slices.Contains(cfgs, cfg) {
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}
	answered, differ := 0, 0
	for _, class := range []prog.BranchClass{prog.ClassSimpleHammock, prog.ClassComplexDiverge} {
		for _, loop := range []bool{false, true} {
			for k, live := range []dpPhase{dpDead, dpPredicted, dpAlternate, dpExited} {
				var got []entryOutcome
				for _, cfg := range cfgs {
					if live == dpDead || cfg.Mode != ModeBaseline {
						got = append(got, enterAt(t, cfg, prog.Diverge{Class: class, Loop: loop}, live))
					}
				}
				name := fmt.Sprintf("%v region, loop %v, live episode %s", class, loop, []string{"none", "predicted", "alternate", "exited"}[k])
				for _, a := range got {
					for _, b := range got {
						if a.cfg.CFMSource == b.cfg.CFMSource && a.ev != b.ev {
							t.Errorf("%s: evidence %+v under %+v, %+v under %+v: it read a knob", name, a.ev, a.cfg, b.ev, b.cfg)
						}
						if a.decision != b.decision {
							differ++
							if !a.ev.Excludes(a.cfg, b.cfg) {
								t.Errorf("%s: %+v decides %v and %+v decides %v, but evidence %+v does not tell them apart",
									name, a.cfg, a.decision, b.cfg, b.decision, a.ev)
							}
						} else if !a.ev.Excludes(a.cfg, b.cfg) {
							answered++
						}
					}
				}
			}
		}
	}
	if answered == 0 || differ == 0 {
		t.Fatalf("%d pairs decided differently and %d answered each other: want both", differ, answered)
	}
}

// TestHybridLoopMarkOffPredictedPath meets a loop mark only while an
// episode is live on its alternate path, where entry ignores every
// diverge branch. Under the hybrid CFM source the mark still decides
// whether the merge predictor is consulted (a loop mark DMP does not
// predicate reads as no annotation), so DMP with loop diverge off and on
// decide differently there, and each one's evidence must record the
// loop class and exclude the other.
func TestHybridLoopMarkOffPredictedPath(t *testing.T) {
	var got [2]entryOutcome
	for i, loops := range []bool{false, true} {
		cfg := DMPConfig()
		cfg.CFMSource, cfg.EnableLoopDiverge = "hybrid", loops
		got[i] = enterAt(t, cfg, prog.Diverge{Class: prog.ClassComplexDiverge, Loop: true}, dpAlternate)
	}
	if got[0].decision == got[1].decision {
		t.Fatalf("loop diverge off and on decided alike (%v): the test checks nothing", got[0].decision)
	}
	for i, o := range got {
		if o.ev.Seen&LoopComplex == 0 || !o.ev.Excludes(o.cfg, got[1-i].cfg) {
			t.Errorf("loop diverge %v: regions %b, and its evidence does not exclude the other", o.cfg.EnableLoopDiverge, o.ev.Seen)
		}
	}
}

// TestDefaultThresholdEvidence covers the early-exit record
// (Evidence.EarlyExit) across the thresholds a mark can carry. A simple
// hammock is marked without a threshold of its own (0, which reads as
// defaultExitThreshold) and with thresholds from 1 to 64, and each
// program runs with early exit off and on. Wherever a run's evidence
// answers the other configuration the two must give equal Stats and
// evidence, some must answer and some not, and some run must exit early
// (which CheckStats ties to the record). A mark without a threshold must
// run as one marked with defaultExitThreshold.
func TestDefaultThresholdEvidence(t *testing.T) {
	type run struct {
		cfg Config
		st  Stats
		ev  Evidence
	}
	byThr := map[int][2]run{}
	exits := uint64(0)
	answered, pairs := 0, 0
	for _, thr := range []int{0, 1, 2, 3, 4, 8, defaultExitThreshold} {
		p, hammockPC := randomHammockProg(300)
		p.Diverge[hammockPC] = &prog.Diverge{CFMs: []uint64{p.Labels["join"]}, Class: prog.ClassSimpleHammock, ExitThreshold: thr}
		var runs [2]run
		for i, on := range []bool{false, true} {
			cfg := EnhancedDMPConfig()
			cfg.ConfidenceName = "always-low"
			cfg.EarlyExit = on
			m, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkStats(t, m, st)
			exits += st.EarlyExits
			runs[i] = run{cfg.Canonical(), *st, m.Evidence()}
		}
		for _, ab := range [][2]run{{runs[0], runs[1]}, {runs[1], runs[0]}} {
			a, b := ab[0], ab[1]
			pairs++
			if !a.ev.Answers(a.cfg, b.cfg) {
				continue
			}
			answered++
			if a.st != b.st || a.ev != b.ev {
				t.Errorf("threshold %d: the run with early exit %v answers the one with %v, but the runs differ",
					thr, a.cfg.EarlyExit, b.cfg.EarlyExit)
			}
		}
		byThr[thr] = runs
	}
	if byThr[0] != byThr[defaultExitThreshold] {
		t.Errorf("a mark without a threshold does not run as one marked %d", defaultExitThreshold)
	}
	if exits == 0 || answered == 0 || answered == pairs {
		t.Fatalf("%d early exits, %d of %d pairs answered: want early exits, and some pairs answered and some not",
			exits, answered, pairs)
	}
}

// TestEpisodeAccountingLaw runs DMP, DHP, enhanced DMP, and enhanced DMP
// with loop diverge and with the dynamic CFM source on every benchmark
// at scale 1, and requires CheckStats to hold on each, the law that
// every episode ends once included: Episodes is the sum of ExitCases,
// EarlyExits and MDBConversions, plus the episodes still unresolved at
// Finish. A miscounted exit case fails it.
func TestEpisodeAccountingLaw(t *testing.T) {
	loops, dynamic := EnhancedDMPConfig(), EnhancedDMPConfig()
	loops.EnableLoopDiverge = true
	dynamic.CFMSource = "dynamic"
	cfgs := []Config{DMPConfig(), DHPConfig(), EnhancedDMPConfig(), loops, dynamic}
	episodes := uint64(0)
	for _, w := range workload.All() {
		p := annotatedRef(t, w, 1)
		for _, cfg := range cfgs {
			m, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if err := m.CheckStats(); err != nil {
				t.Errorf("%s under %+v: %v", w.Name, cfg, err)
			}
			episodes += st.Episodes
		}
	}
	if episodes == 0 {
		t.Fatal("no run entered an episode: the law checks nothing")
	}
}
