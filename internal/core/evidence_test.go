package core

import (
	"fmt"
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
			if st.Episodes > 0 && !ev.exits(cfg.EarlyExit, cfg.EarlyExitDefault) {
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

// TestEntryEvidenceReadsNoKnob drives episode entry (maybeEnterDP) for a
// simple-hammock and a complex region in every state a live episode can
// be in when the branch is fetched: none, on its predicted path, on its
// alternate path, exited. Under DMP and DHP, with MultipleDiverge off and
// on, the four machines must record the same evidence, and wherever
// flipping a knob changes the decision (enter, convert, or ignore), that
// knob must be recorded as exercised.
func TestEntryEvidenceReadsNoKnob(t *testing.T) {
	const none = dpDead
	type outcome struct {
		entered   bool
		converted uint64
		ev        Evidence
	}
	for _, class := range []prog.BranchClass{prog.ClassSimpleHammock, prog.ClassComplexDiverge} {
		for k, live := range []dpPhase{none, dpPredicted, dpAlternate, dpExited} {
			var got [2][2]outcome // [DHP][MultipleDiverge]
			for i, mode := range []Mode{ModeDMP, ModeDHP} {
				for j, mdb := range []bool{false, true} {
					p, hammockPC := randomHammockProg(10)
					loopPC := uint64(len(p.Code) - 3) // the loop's backward branch
					if p.Code[loopPC].Op != isa.BR {
						t.Fatalf("pc %d is %v, want the loop branch", loopPC, p.Code[loopPC].Op)
					}
					p.Diverge[hammockPC] = &prog.Diverge{CFMs: []uint64{p.Labels["join"]}, Class: prog.ClassSimpleHammock}
					p.Diverge[loopPC] = &prog.Diverge{CFMs: []uint64{loopPC + 1}, Class: class}
					cfg := DMPConfig()
					cfg.Mode, cfg.MultipleDiverge = mode, mdb
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
					if live != none {
						if !m.maybeEnterDP(fetch(hammockPC)) {
							t.Fatal("the simple hammock entered no episode")
						}
						ep := m.live
						ep.phase = live
						if live == dpExited {
							m.feEp = nil
						}
					}
					entered := m.maybeEnterDP(fetch(loopPC))
					got[i][j] = outcome{entered, m.Stats.MDBConversions, m.ev}
				}
			}
			name := fmt.Sprintf("%v region, live episode %s", class, []string{"none", "predicted", "alternate", "exited"}[k])
			for i := range got {
				for j := range got[i] {
					if got[i][j].ev != got[0][0].ev {
						t.Errorf("%s: evidence %+v under (dhp %d, mdb %d), %+v under DMP: it read a knob",
							name, got[i][j].ev, i, j, got[0][0].ev)
					}
				}
			}
			ev := got[0][0].ev
			decision := func(o outcome) [2]uint64 {
				e := uint64(0)
				if o.entered {
					e = 1
				}
				return [2]uint64{e, o.converted}
			}
			for j := 0; j < 2; j++ {
				if decision(got[0][j]) != decision(got[1][j]) && !ev.DHPFilter {
					t.Errorf("%s, mdb %d: DHP and DMP decide differently, but DHPFilter is unset", name, j)
				}
			}
			for i := 0; i < 2; i++ {
				if decision(got[i][0]) != decision(got[i][1]) && !ev.MultipleDiverge {
					t.Errorf("%s, dhp %d: MultipleDiverge off and on decide differently, but it is unset", name, i)
				}
			}
		}
	}
}

// TestDefaultThresholdEvidence covers the early-exit record of regions
// without a threshold of their own (Evidence.AltLongest), which no
// profiled program has: every mark the profiler writes carries its own
// threshold, and so does every merge-predictor entry. A simple hammock
// marked without one runs with early exit off and at default thresholds
// from 1 to 64. Wherever a run's evidence answers another configuration
// the two must give equal Stats and evidence, some must answer and some
// not, and some run must exit early (which CheckStats ties to the
// record).
func TestDefaultThresholdEvidence(t *testing.T) {
	p, hammockPC := randomHammockProg(300)
	p.Diverge[hammockPC] = &prog.Diverge{CFMs: []uint64{p.Labels["join"]}, Class: prog.ClassSimpleHammock}
	type run struct {
		cfg Config
		st  Stats
		ev  Evidence
	}
	var runs []run
	exits := uint64(0)
	for _, thr := range []int{0, 1, 2, 3, 4, 8, 64} {
		cfg := EnhancedDMPConfig()
		cfg.ConfidenceName = "always-low"
		cfg.EarlyExit, cfg.EarlyExitDefault = thr > 0, max(thr, 1)
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
		runs = append(runs, run{cfg.Canonical(), *st, m.Evidence()})
	}
	answered, pairs := 0, 0
	for _, a := range runs {
		for _, b := range runs {
			if a.cfg == b.cfg {
				continue
			}
			pairs++
			if !a.ev.Answers(a.cfg, b.cfg) {
				continue
			}
			answered++
			if a.st != b.st || a.ev != b.ev {
				t.Errorf("the run at threshold %d (early exit %v) answers threshold %d (%v), but the runs differ",
					a.cfg.EarlyExitDefault, a.cfg.EarlyExit, b.cfg.EarlyExitDefault, b.cfg.EarlyExit)
			}
		}
	}
	if exits == 0 || answered == 0 || answered == pairs {
		t.Fatalf("%d early exits, %d of %d pairs answered: want early exits, and some pairs answered and some not",
			exits, answered, pairs)
	}
}
