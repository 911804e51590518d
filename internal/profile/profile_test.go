package profile

import (
	"testing"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// randomHammock builds a loop whose body contains a hard-to-predict
// if-else hammock on LCG pseudo-random data, followed by a common tail.
// Returns the program, the hammock branch PC, and the join PC.
func randomHammock(t *testing.T, iters int64) (*prog.Program, uint64, uint64) {
	t.Helper()
	b := prog.NewBuilder()
	const (
		rSeed = isa.Reg(1)
		rIter = isa.Reg(2)
		rBit  = isa.Reg(3)
		rAcc  = isa.Reg(4)
	)
	b.Li(rSeed, 88172645463325252)
	b.Li(rIter, iters)
	b.Label("loop")
	// xorshift-ish scramble, then branch on a mid bit.
	b.Muli(rSeed, rSeed, 6364136223846793005)
	b.Addi(rSeed, rSeed, 1442695040888963407)
	b.Shri(rBit, rSeed, 33)
	b.Andi(rBit, rBit, 1)
	brPC := b.Br(isa.NE, rBit, isa.Zero, "then")
	b.Addi(rAcc, rAcc, 3) // else side
	b.Jmp("join")
	b.Label("then")
	b.Addi(rAcc, rAcc, 5)
	b.Label("join")
	b.Addi(rAcc, rAcc, 1) // control-independent tail
	b.Subi(rIter, rIter, 1)
	b.Br(isa.GT, rIter, isa.Zero, "loop")
	b.Halt()
	p := b.MustBuild()
	return p, brPC, p.PC("join")
}

func TestProfilerFindsHammockCFM(t *testing.T) {
	p, brPC, join := randomHammock(t, 3000)
	rep, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := p.DivergeAt(brPC)
	if d == nil {
		t.Fatalf("hammock branch %d not marked as diverge; report:\n%s", brPC, rep)
	}
	if d.CFMs[0] != join {
		t.Errorf("primary CFM = %d, want join %d; report:\n%s", d.CFMs[0], join, rep)
	}
	if d.Class != prog.ClassSimpleHammock {
		t.Errorf("class = %v, want simple-hammock", d.Class)
	}
	if d.Loop {
		t.Error("forward hammock marked as loop")
	}
	if d.ExitThreshold <= 0 || d.ExitThreshold > DefaultOptions().MaxDist {
		t.Errorf("exit threshold = %d out of range", d.ExitThreshold)
	}
}

func TestProfilerSkipsPredictableBranch(t *testing.T) {
	// The loop back-branch is almost always taken: well predicted, so it
	// must not be a diverge candidate (below the misprediction share).
	p, _, _ := randomHammock(t, 3000)
	rep, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range rep.Branches {
		if p.Code[bs.PC].Target <= bs.PC && len(bs.CFMs) > 0 {
			t.Errorf("well-predicted backward branch %d marked", bs.PC)
		}
	}
}

// randomTripLoop builds a loop whose trip count is random (1 or 2
// iterations), which makes its back-branch hard to predict. It returns
// the program and the back-branch's PC.
func randomTripLoop() (*prog.Program, uint64) {
	b := prog.NewBuilder()
	b.Li(1, 88172645463325252)
	b.Li(2, 4000) // outer iterations
	b.Label("outer")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 40)
	b.Andi(3, 3, 1)
	b.Addi(3, 3, 1) // inner trip count: 1 or 2
	b.Label("inner")
	b.Addi(4, 4, 1)
	b.Subi(3, 3, 1)
	innerBr := b.Br(isa.GT, 3, isa.Zero, "inner")
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "outer")
	b.Halt()
	return b.MustBuild(), innerBr
}

func TestProfilerMarksLoopBranch(t *testing.T) {
	// The hard-to-predict back-branch is marked, and as a loop diverge
	// branch: whether to predicate it is the machine's choice
	// (core.Config.EnableLoopDiverge).
	p, innerBr := randomTripLoop()
	if _, err := Run(p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if d := p.DivergeAt(innerBr); d == nil || !d.Loop {
		t.Errorf("back-branch marked %+v; want a Loop diverge branch", d)
	}
}

func TestProfilerComplexDivergeClassification(t *testing.T) {
	// A diverge branch whose taken side contains another (biased) branch:
	// complex control flow, but still reconverging at a common join.
	b := prog.NewBuilder()
	b.Li(1, 88172645463325252)
	b.Li(2, 4000)
	b.Label("loop")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 33)
	b.Andi(3, 3, 1)
	brPC := b.Br(isa.NE, 3, isa.Zero, "then")
	b.Addi(4, 4, 3)
	b.Jmp("join")
	b.Label("then")
	b.Shri(5, 1, 13)
	b.Andi(5, 5, 7)
	b.Br(isa.EQ, 5, isa.Zero, "rare") // biased branch inside the hammock
	b.Addi(4, 4, 5)
	b.Jmp("join")
	b.Label("rare")
	b.Addi(4, 4, 7)
	b.Label("join")
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.Halt()
	p := b.MustBuild()

	rep, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := p.DivergeAt(brPC)
	if d == nil {
		t.Fatalf("complex diverge branch not marked; report:\n%s", rep)
	}
	if d.Class != prog.ClassComplexDiverge {
		t.Errorf("class = %v, want complex-diverge", d.Class)
	}
	if d.CFMs[0] != p.PC("join") {
		t.Errorf("CFM = %d, want %d", d.CFMs[0], p.PC("join"))
	}
}

func TestProfilerPostDomAblation(t *testing.T) {
	p, brPC, join := randomHammock(t, 2000)
	opts := DefaultOptions()
	opts.UsePostDom = true
	if _, err := Run(p, opts); err != nil {
		t.Fatal(err)
	}
	d := p.DivergeAt(brPC)
	if d == nil {
		t.Fatal("branch not marked under post-dom CFM selection")
	}
	if d.CFMs[0] != join {
		t.Errorf("post-dom CFM = %d, want %d (join is also the ipostdom here)", d.CFMs[0], join)
	}
}

func TestProfilerNoMergeNoMark(t *testing.T) {
	// A hard-to-predict branch whose two sides never reconverge within
	// MaxDist: each side enters a long private spin before the join.
	b := prog.NewBuilder()
	b.Li(1, 88172645463325252)
	b.Li(2, 300)
	b.Label("loop")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 33)
	b.Andi(3, 3, 1)
	brPC := b.Br(isa.NE, 3, isa.Zero, "then")
	b.Li(5, 200) // else: long private spin
	b.Label("espin")
	b.Subi(5, 5, 1)
	b.Br(isa.GT, 5, isa.Zero, "espin")
	b.Jmp("join")
	b.Label("then")
	b.Li(5, 200) // then: its own long private spin
	b.Label("tspin")
	b.Subi(5, 5, 1)
	b.Br(isa.GT, 5, isa.Zero, "tspin")
	b.Label("join")
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.Halt()
	p := b.MustBuild()

	rep, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := p.DivergeAt(brPC); d != nil {
		t.Errorf("never-merging branch was marked with CFMs %v; report:\n%s", d.CFMs, rep)
	}
}

func TestProfilerReportCounts(t *testing.T) {
	p, _, _ := randomHammock(t, 1000)
	rep, err := Run(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalInsts == 0 || rep.TotalBranches == 0 {
		t.Error("empty report totals")
	}
	// 1000 iterations x 2 branches each.
	if rep.TotalBranches != 2000 {
		t.Errorf("branches = %d, want 2000", rep.TotalBranches)
	}
	// The random hammock branch alone should account for ~50% mispredicts.
	if rep.TotalMispredicts < 300 {
		t.Errorf("mispredicts = %d, suspiciously low", rep.TotalMispredicts)
	}
	var sumExec uint64
	for _, bs := range rep.Branches {
		sumExec += bs.Execs
	}
	if sumExec != rep.TotalBranches {
		t.Errorf("per-branch execs sum %d != total %d", sumExec, rep.TotalBranches)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestProfilerInvalidOptions(t *testing.T) {
	p, _, _ := randomHammock(t, 10)
	if _, err := Run(p, Options{}); err == nil {
		t.Error("zero options accepted")
	}
}

func TestProfilerMaxInstsBounds(t *testing.T) {
	p, _, _ := randomHammock(t, 1_000_000)
	opts := DefaultOptions()
	opts.MaxInsts = 5000
	rep, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalInsts > 5000 {
		t.Errorf("profiled %d insts, cap 5000", rep.TotalInsts)
	}
}

func TestProfilerDeterministic(t *testing.T) {
	p1, br1, _ := randomHammock(t, 1500)
	p2, br2, _ := randomHammock(t, 1500)
	r1, err1 := Run(p1, DefaultOptions())
	r2, err2 := Run(p2, DefaultOptions())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.String() != r2.String() {
		t.Error("profiling not deterministic")
	}
	d1, d2 := p1.DivergeAt(br1), p2.DivergeAt(br2)
	if (d1 == nil) != (d2 == nil) {
		t.Fatal("marking not deterministic")
	}
	if d1 != nil && (d1.CFMs[0] != d2.CFMs[0] || d1.ExitThreshold != d2.ExitThreshold) {
		t.Error("annotations not deterministic")
	}
}
