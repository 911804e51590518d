package core

import (
	"testing"

	"dmp/internal/prog"
)

// TestEmptyCFMListFallsBack is the regression test for the episode-entry
// guard: a diverge branch whose annotation carries no CFM points must
// fall back to normal branch prediction instead of panicking in
// enterEpisode. (MarkDiverge rejects such annotations, so the map is
// populated directly, the way a corrupted annotation stream would.)
func TestEmptyCFMListFallsBack(t *testing.T) {
	p, brPC := randomHammockProg(500)
	p.Diverge[brPC] = &prog.Diverge{Class: prog.ClassComplexDiverge}
	st := runBoth(t, p, DMPConfig())
	if st.Episodes != 0 {
		t.Errorf("entered %d episodes from an empty CFM list", st.Episodes)
	}
}

// TestEpisodeEntryRule pins the filters of the episode-entry rule fetch
// and functional warming share (WarmState.episodeDiverge): DHP predicates
// only simple hammocks, and a loop-marked diverge branch is predicated
// only with EnableLoopDiverge. Every branch is low-confidence, so the one
// annotated branch enters an episode exactly when the rule admits it.
func TestEpisodeEntryRule(t *testing.T) {
	for _, mode := range []Mode{ModeDMP, ModeDHP} {
		for _, class := range []prog.BranchClass{prog.ClassSimpleHammock, prog.ClassComplexDiverge} {
			for _, loop := range []bool{false, true} {
				for _, enable := range []bool{false, true} {
					cfg := DMPConfig()
					cfg.Mode = mode
					cfg.ConfidenceName = "always-low"
					cfg.EnableLoopDiverge = enable
					p, brPC := randomHammockProg(300)
					p.Diverge[brPC] = &prog.Diverge{CFMs: []uint64{p.Labels["join"]}, Class: class, Loop: loop}
					admitted := !(mode == ModeDHP && class != prog.ClassSimpleHammock) && !(loop && !enable)

					ws, err := newWarmState(cfg)
					if err != nil {
						t.Fatal(err)
					}
					d, _ := ws.episodeDiverge(p, brPC)
					st := runBoth(t, p, cfg)
					if got := d != nil; got != admitted {
						t.Errorf("%v class=%v loop=%v enable=%v: episodeDiverge admitted=%v, want %v",
							mode, class, loop, enable, got, admitted)
					}
					if got := st.Episodes != 0; got != admitted {
						t.Errorf("%v class=%v loop=%v enable=%v: %d episodes, want admitted=%v",
							mode, class, loop, enable, st.Episodes, admitted)
					}
				}
			}
		}
	}
}

// TestAnnotatedSourceByteIdentical pins that spelling out the default
// CFM source (and setting a table size, which the annotated source
// ignores) leaves Stats byte-identical to the seed configuration — the
// merge predictor must be completely absent from annotated-mode runs.
func TestAnnotatedSourceByteIdentical(t *testing.T) {
	p1, _ := randomHammockProg(2000)
	seed := runBoth(t, profiled(t, p1), EnhancedDMPConfig())

	p2, _ := randomHammockProg(2000)
	cfg := EnhancedDMPConfig()
	cfg.CFMSource = "annotated"
	cfg.MergeTableSize = 256
	st := runBoth(t, profiled(t, p2), cfg)

	a, b := *seed, *st
	if a != b {
		t.Errorf("annotated source diverged from seed:\nseed: %+v\ngot:  %+v", a, b)
	}
	if st.MergeHits+st.MergeMisses+st.MergeTrainings != 0 {
		t.Errorf("annotated source touched the merge predictor: %+v", st)
	}
}

// TestDynamicSourceLearnsAndPredicates runs an UNANNOTATED hammock
// program with the dynamic CFM source: the predictor must learn the join
// from retired control flow and drive real dynamic-predication episodes,
// while the machine still matches the functional emulator.
func TestDynamicSourceLearnsAndPredicates(t *testing.T) {
	p, _ := randomHammockProg(3000)
	cfg := EnhancedDMPConfig()
	cfg.CFMSource = "dynamic"
	st := runBoth(t, p, cfg)
	if st.MergeTrainings == 0 {
		t.Error("predictor never trained")
	}
	if st.MergeHits == 0 {
		t.Error("no merge-table hits")
	}
	if st.DynCFMEpisodes == 0 {
		t.Error("no episodes entered from a learned CFM")
	}
	if st.DynCFMEpisodes != st.Episodes {
		t.Errorf("dynamic source entered %d episodes but only %d were learned-CFM",
			st.Episodes, st.DynCFMEpisodes)
	}
	if st.RetiredSelects == 0 {
		t.Error("no select-uops retired from learned-CFM episodes")
	}
}

// TestDynamicSourceIgnoresAnnotations pins the "dynamic" semantics: even
// on an annotated program, every episode must come from the predictor.
func TestDynamicSourceIgnoresAnnotations(t *testing.T) {
	p, _ := randomHammockProg(3000)
	profiled(t, p)
	cfg := EnhancedDMPConfig()
	cfg.CFMSource = "dynamic"
	st := runBoth(t, p, cfg)
	if st.Episodes != st.DynCFMEpisodes {
		t.Errorf("%d of %d episodes used the annotation under the dynamic source",
			st.Episodes-st.DynCFMEpisodes, st.Episodes)
	}
}

// TestHybridPrefersAnnotation pins hybrid's precedence on a program
// whose only diverge branch is annotated: the predictor may train, but
// every episode at that branch uses the compiler CFM.
func TestHybridPrefersAnnotation(t *testing.T) {
	p, brPC := randomHammockProg(3000)
	profiled(t, p)
	if p.DivergeAt(brPC) == nil {
		t.Fatal("profiler did not mark the hammock branch")
	}
	cfg := EnhancedDMPConfig()
	cfg.CFMSource = "hybrid"
	st := runBoth(t, p, cfg)
	if st.Episodes == 0 {
		t.Error("hybrid entered no episodes on an annotated hammock")
	}
	if st.DynCFMEpisodes != 0 {
		t.Errorf("%d learned-CFM episodes on a program whose only eligible branch is annotated",
			st.DynCFMEpisodes)
	}
}

// TestDynamicDeterminism pins that two dynamic-source runs of the same
// program are byte-identical — the predictor introduces no
// nondeterminism into the golden tables.
func TestDynamicDeterminism(t *testing.T) {
	run := func() *Stats {
		p, _ := randomHammockProg(2000)
		cfg := EnhancedDMPConfig()
		cfg.CFMSource = "dynamic"
		return runBoth(t, p, cfg)
	}
	a, b := *run(), *run()
	if a != b {
		t.Errorf("dynamic-source runs diverged:\n%+v\n%+v", a, b)
	}
}
