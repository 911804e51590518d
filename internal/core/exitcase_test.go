package core

import (
	"testing"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// buildExitProg is the clean constructor used by the tests below.
func buildExitProg(takenLen, ntLen int, thresh int64, iters int64) (*prog.Program, uint64) {
	b := prog.NewBuilder()
	const region = 0x200000
	b.Li(1, 0x2545F4914F6CDD1D)
	b.Li(2, iters)
	b.Li(5, thresh) // taken iff value < thresh (value in 0..127)
	b.Li(16, region)
	// Warm-up store so the first iteration's cold load reads real data.
	b.St(1, 16, -64)
	b.Label("loop")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 33)
	b.Andi(3, 3, 127)
	b.St(3, 16, 0)
	b.Ld(4, 16, -64) // cold line: ~312-cycle condition delay
	b.Addi(16, 16, 64)
	brPC := b.Br(isa.LT, 4, 5, "then")
	for i := 0; i < ntLen; i++ {
		b.Addi(10, 10, 1)
	}
	b.Jmp("join")
	b.Label("then")
	for i := 0; i < takenLen; i++ {
		b.Addi(11, 11, 1)
	}
	b.Label("join")
	b.Addi(12, 12, 1)
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.Halt()
	p := b.MustBuild()
	p.MarkDiverge(brPC, &prog.Diverge{
		CFMs:          []uint64{p.PC("join")},
		Class:         prog.ClassSimpleHammock,
		ExitThreshold: 1000, // never early-exit in these tests
	})
	return p, brPC
}

func runExit(t *testing.T, p *prog.Program, cfg Config) *Stats {
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
	if !st.HaltRetired {
		t.Fatal("did not halt")
	}
	return st
}

// With short paths on both sides, fetch reaches the CFM on both long
// before the delayed condition resolves: every episode exits normally.
// Perfect confidence makes every episode a real misprediction: case 2.
func TestExitCase2Forced(t *testing.T) {
	p, _ := buildExitProg(2, 2, 64, 300) // 50/50: unpredictable
	cfg := DMPConfig()
	cfg.ConfidenceName = "perfect"
	st := runExit(t, p, cfg)
	if st.Episodes == 0 {
		t.Fatal("no episodes")
	}
	if st.ExitCases[Exit2] == 0 {
		t.Fatalf("no case-2 exits: %v", st.ExitCases)
	}
	if st.ExitCases[Exit2] < st.Episodes*8/10 {
		t.Errorf("case 2 = %d of %d episodes, want dominant: %v",
			st.ExitCases[Exit2], st.Episodes, st.ExitCases)
	}
}

// Same shape with always-low confidence: correctly predicted instances
// are predicated too and exit as case 1.
func TestExitCase1Forced(t *testing.T) {
	p, _ := buildExitProg(2, 2, 110, 300) // ~86% taken: predictable
	cfg := DMPConfig()
	cfg.ConfidenceName = "always-low"
	st := runExit(t, p, cfg)
	if st.ExitCases[Exit1] == 0 {
		t.Fatalf("no case-1 exits: %v", st.ExitCases)
	}
	if st.ExitCases[Exit1] <= st.ExitCases[Exit2] {
		t.Errorf("case 1 (%d) should dominate case 2 (%d) on a predictable branch",
			st.ExitCases[Exit1], st.ExitCases[Exit2])
	}
}

// A very long alternate path keeps fetch on it when the delayed branch
// resolves: correct predictions exit as case 3 (redirect to CFM),
// mispredictions as case 4 (no action).
func TestExitCase3And4Forced(t *testing.T) {
	// Predicted side (not-taken, threshold 16 → ~88% NT) is short; the
	// taken side (the alternate for NT predictions) is very long.
	p, _ := buildExitProg(400, 2, 16, 200)
	cfg := DMPConfig()
	cfg.ConfidenceName = "always-low"
	st := runExit(t, p, cfg)
	if st.ExitCases[Exit3] == 0 {
		t.Errorf("no case-3 exits: %v", st.ExitCases)
	}
	if st.ExitCases[Exit4] == 0 {
		t.Errorf("no case-4 exits: %v", st.ExitCases)
	}
	if st.ExitCases[Exit3] <= st.ExitCases[Exit4] {
		t.Errorf("case 3 (%d) should outnumber case 4 (%d) on an 88%%-predictable branch",
			st.ExitCases[Exit3], st.ExitCases[Exit4])
	}
}

// A very long predicted path keeps fetch on it at resolution: correct
// predictions exit as case 5, mispredictions flush as case 6.
func TestExitCase5And6Forced(t *testing.T) {
	// Threshold 112 → ~88% taken, so the predictor learns taken; the
	// taken (predicted) side is very long.
	p, _ := buildExitProg(400, 2, 112, 200)
	cfg := DMPConfig()
	cfg.ConfidenceName = "always-low"
	st := runExit(t, p, cfg)
	if st.ExitCases[Exit5] == 0 {
		t.Errorf("no case-5 exits: %v", st.ExitCases)
	}
	if st.ExitCases[Exit6] == 0 {
		t.Errorf("no case-6 exits: %v", st.ExitCases)
	}
	if st.ExitCases[Exit5] <= st.ExitCases[Exit6] {
		t.Errorf("case 5 (%d) should outnumber case 6 (%d)",
			st.ExitCases[Exit5], st.ExitCases[Exit6])
	}
}

// Early exit converts long-alternate episodes instead of case 3.
func TestEarlyExitReplacesCase3(t *testing.T) {
	p, brPC := buildExitProg(400, 2, 16, 200)
	p.DivergeAt(brPC).ExitThreshold = 20
	cfg := DMPConfig()
	cfg.ConfidenceName = "always-low"
	cfg.EarlyExit = true
	st := runExit(t, p, cfg)
	if st.EarlyExits == 0 {
		t.Fatalf("no early exits: %v", st.ExitCases)
	}
	noEE := func() *Stats {
		p2, _ := buildExitProg(400, 2, 16, 200)
		c2 := DMPConfig()
		c2.ConfidenceName = "always-low"
		return runExit(t, p2, c2)
	}()
	if st.ExitCases[Exit3] >= noEE.ExitCases[Exit3] {
		t.Errorf("early exit did not reduce case 3: %d vs %d",
			st.ExitCases[Exit3], noEE.ExitCases[Exit3])
	}
	// And it should be faster than paying the full case-3 overhead.
	if st.IPC() <= noEE.IPC()*95/100 {
		t.Errorf("early exit IPC %.3f much worse than without (%.3f)", st.IPC(), noEE.IPC())
	}
}

// The case-2 win must translate into fewer flushes than the baseline on
// the unpredictable variant.
func TestCase2EliminatesFlushes(t *testing.T) {
	pBase, _ := buildExitProg(2, 2, 64, 300)
	base := runExit(t, pBase, DefaultConfig())
	pDMP, _ := buildExitProg(2, 2, 64, 300)
	cfg := DMPConfig()
	cfg.ConfidenceName = "perfect"
	dmp := runExit(t, pDMP, cfg)
	if dmp.Flushes >= base.Flushes {
		t.Errorf("DMP flushes %d >= baseline %d", dmp.Flushes, base.Flushes)
	}
	if dmp.IPC() <= base.IPC() {
		t.Errorf("DMP IPC %.3f <= baseline %.3f", dmp.IPC(), base.IPC())
	}
}
