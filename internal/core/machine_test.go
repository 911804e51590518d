package core

import (
	"testing"

	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/profile"
	"dmp/internal/prog"
)

// runBoth executes p on the functional emulator and on a Machine under
// cfg, verifying that the machine reaches the same architectural state.
// The machine's built-in golden-model checker is active throughout.
func runBoth(t *testing.T, p *prog.Program, cfg Config) *Stats {
	t.Helper()
	e := emu.New(p)
	if _, err := e.Run(5_000_000); err != nil {
		t.Fatalf("emulator: %v", err)
	}
	if !e.Halted {
		t.Fatal("emulator did not halt (bad test program)")
	}

	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("machine (%v): %v\nstats: %v", cfg.Mode, err, st)
	}
	checkStats(t, m, st)
	if !st.HaltRetired {
		t.Fatalf("machine (%v) did not retire HALT: %v", cfg.Mode, st)
	}
	if st.RetiredInsts != e.Count {
		t.Errorf("retired %d insts, emulator executed %d", st.RetiredInsts, e.Count)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if got, want := m.CommittedReg(isa.Reg(r)), e.Reg(isa.Reg(r)); got != want {
			t.Errorf("r%d = %d, want %d", r, got, want)
		}
	}
	e.Mem.Each(func(addr, val uint64) {
		if got := m.CommittedMem(addr); got != val {
			t.Errorf("mem[%#x] = %d, want %d", addr, got, val)
		}
	})
	return st
}

// --- test programs ---

func sumLoop(n int64) *prog.Program {
	b := prog.NewBuilder()
	b.Li(1, n)
	b.Li(2, 0)
	b.Label("loop")
	b.Add(2, 2, 1)
	b.Subi(1, 1, 1)
	b.Br(isa.GT, 1, isa.Zero, "loop")
	b.St(2, isa.Zero, 0x1000)
	b.Halt()
	return b.MustBuild()
}

// randomHammockProg: a loop with a hard-to-predict if-else hammock, a
// control-independent tail, and memory traffic. Returns the program and
// the hammock branch PC.
func randomHammockProg(iters int64) (*prog.Program, uint64) {
	b := prog.NewBuilder()
	b.Li(1, 88172645463325252) // r1: lcg state
	b.Li(2, iters)             // r2: loop counter
	b.Li(6, 0x4000)            // r6: array base
	b.Label("loop")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 33)
	b.Andi(3, 3, 1)
	brPC := b.Br(isa.NE, 3, isa.Zero, "then")
	b.Addi(4, 4, 3) // else
	b.Muli(5, 4, 7)
	b.Jmp("join")
	b.Label("then")
	b.Addi(4, 4, 5)
	b.Muli(5, 4, 3)
	b.Label("join")
	b.Add(4, 4, 5)    // control-independent tail
	b.Andi(7, 1, 255) // store to a data-dependent slot
	b.Shli(7, 7, 3)
	b.Add(7, 7, 6)
	b.St(4, 7, 0)
	b.Ld(8, 7, 0)
	b.Add(9, 9, 8)
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.St(9, isa.Zero, 0x2000)
	b.Halt()
	return b.MustBuild(), brPC
}

// callHammockProg: a hard-to-predict branch whose taken side calls a
// function — a complex diverge branch DMP can predicate but DHP cannot.
func callHammockProg(iters int64) *prog.Program {
	b := prog.NewBuilder()
	b.Entry("main")
	b.Label("fn") // doubles r4
	b.Add(4, 4, 4)
	b.Ret()
	b.Label("main")
	b.Li(1, 88172645463325252)
	b.Li(2, iters)
	b.Label("loop")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 33)
	b.Andi(3, 3, 1)
	b.Br(isa.EQ, 3, isa.Zero, "skip")
	b.Addi(4, 4, 1)
	b.Call("fn")
	b.Label("skip")
	b.Addi(5, 5, 1) // control-independent
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.Halt()
	return b.MustBuild()
}

// profiled returns the program annotated by the profiling pass.
func profiled(t *testing.T, p *prog.Program) *prog.Program {
	t.Helper()
	if _, err := profile.Run(p, profile.DefaultOptions()); err != nil {
		t.Fatalf("profile: %v", err)
	}
	return p
}

// --- baseline correctness ---

func TestBaselineSumLoop(t *testing.T) {
	st := runBoth(t, sumLoop(500), DefaultConfig())
	if st.IPC() <= 0 {
		t.Error("zero IPC")
	}
}

func TestBaselineRandomHammock(t *testing.T) {
	st := runBoth(t, mustProg(randomHammockProg(2000)), DefaultConfig())
	if st.RetiredMispredicts == 0 {
		t.Error("random hammock produced no mispredictions")
	}
	if st.Flushes == 0 {
		t.Error("no flushes on baseline")
	}
}

func mustProg(p *prog.Program, _ uint64) *prog.Program { return p }

func TestBaselineCallsAndReturns(t *testing.T) {
	runBoth(t, callHammockProg(1500), DefaultConfig())
}

func TestBaselineIndirectJumps(t *testing.T) {
	// A jump table: dispatch through JR on pseudo-random selectors.
	b := prog.NewBuilder()
	b.Li(1, 88172645463325252)
	b.Li(2, 800)
	b.Label("loop")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	b.Shri(3, 1, 40)
	b.Andi(3, 3, 3) // selector 0..3
	b.Shli(4, 3, 3)
	b.Ld(5, 4, 0x3000) // table at 0x3000
	b.Jr(5)
	b.Label("c0")
	b.Addi(6, 6, 1)
	b.Jmp("cont")
	b.Label("c1")
	b.Addi(6, 6, 2)
	b.Jmp("cont")
	b.Label("c2")
	b.Addi(6, 6, 3)
	b.Jmp("cont")
	b.Label("c3")
	b.Addi(6, 6, 4)
	b.Label("cont")
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.Halt()
	p := b.MustBuild()
	p.SetWord(0x3000, p.PC("c0"))
	p.SetWord(0x3008, p.PC("c1"))
	p.SetWord(0x3010, p.PC("c2"))
	p.SetWord(0x3018, p.PC("c3"))
	runBoth(t, p, DefaultConfig())
}

func TestBaselineMemoryDisambiguation(t *testing.T) {
	// Store-to-load through the same pseudo-random addresses stresses
	// forwarding and the conservative unknown-address stall.
	b := prog.NewBuilder()
	b.Li(1, 99991)
	b.Li(2, 1200)
	b.Li(6, 0x8000)
	b.Label("loop")
	b.Muli(1, 1, 2862933555777941757)
	b.Addi(1, 1, 3037000493)
	b.Andi(3, 1, 63)
	b.Shli(3, 3, 3)
	b.Add(3, 3, 6)
	b.St(1, 3, 0)
	b.Ld(4, 3, 0)
	b.Xor(5, 5, 4)
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "loop")
	b.St(5, isa.Zero, 0x100)
	b.Halt()
	runBoth(t, b.MustBuild(), DefaultConfig())
}

func TestPerfectPredictionNoWrongPath(t *testing.T) {
	p, _ := randomHammockProg(1500)
	cfg := DefaultConfig()
	cfg.Mode = ModePerfect
	st := runBoth(t, p, cfg)
	if st.RetiredMispredicts != 0 {
		t.Errorf("perfect mode mispredicted %d conditionals", st.RetiredMispredicts)
	}
	if st.FetchedWrongCD+st.FetchedWrongCI != 0 {
		t.Errorf("perfect mode fetched %d wrong-path insts", st.FetchedWrongCD+st.FetchedWrongCI)
	}
}

func TestPerfectBeatsBaseline(t *testing.T) {
	p1, _ := randomHammockProg(2000)
	base := runBoth(t, p1, DefaultConfig())
	p2, _ := randomHammockProg(2000)
	cfg := DefaultConfig()
	cfg.Mode = ModePerfect
	perf := runBoth(t, p2, cfg)
	if perf.IPC() <= base.IPC() {
		t.Errorf("perfect IPC %.3f <= baseline %.3f", perf.IPC(), base.IPC())
	}
}

// --- DMP correctness ---

func TestDMPRandomHammock(t *testing.T) {
	p, brPC := randomHammockProg(2000)
	profiled(t, p)
	if p.DivergeAt(brPC) == nil {
		t.Fatal("profiler did not mark the hammock branch")
	}
	st := runBoth(t, p, DMPConfig())
	if st.Episodes == 0 {
		t.Error("DMP never entered dynamic predication mode")
	}
	if st.ExitCases[Exit2] == 0 {
		t.Error("no case-2 exits (mispredictions absorbed) on a random hammock")
	}
	if st.RetiredSelects == 0 {
		t.Error("no select-uops retired")
	}
}

func TestDMPPerfectConfidence(t *testing.T) {
	p, _ := randomHammockProg(2000)
	profiled(t, p)
	cfg := DMPConfig()
	cfg.ConfidenceName = "perfect"
	st := runBoth(t, p, cfg)
	// With perfect confidence, predication only starts on real
	// mispredictions: case 1 (both paths fetched, branch correct) should
	// be impossible.
	if st.ExitCases[Exit1] != 0 {
		t.Errorf("perfect confidence produced %d case-1 exits", st.ExitCases[Exit1])
	}
	if st.Episodes == 0 {
		t.Error("no episodes under perfect confidence")
	}
}

func TestDMPReducesFlushes(t *testing.T) {
	p1, _ := randomHammockProg(3000)
	base := runBoth(t, p1, DefaultConfig())

	p2, _ := randomHammockProg(3000)
	profiled(t, p2)
	cfg := DMPConfig()
	cfg.ConfidenceName = "perfect"
	dmp := runBoth(t, p2, cfg)

	if dmp.Flushes >= base.Flushes {
		t.Errorf("DMP flushes %d >= baseline %d", dmp.Flushes, base.Flushes)
	}
	if dmp.IPC() <= base.IPC() {
		t.Errorf("DMP IPC %.3f <= baseline %.3f on hammock-dominated code", dmp.IPC(), base.IPC())
	}
}

func TestDMPComplexHammockWithCall(t *testing.T) {
	p := profiled(t, callHammockProg(1500))
	st := runBoth(t, p, DMPConfig())
	if st.Episodes == 0 {
		t.Skip("profiler did not mark the call hammock on this input")
	}
}

func TestDHPOnlySimpleHammocks(t *testing.T) {
	// The call-hammock program's diverge branch is complex: DHP must not
	// predicate it.
	p := profiled(t, callHammockProg(1500))
	st := runBoth(t, p, DHPConfig())
	if st.Episodes != 0 {
		t.Errorf("DHP predicated %d complex episodes", st.Episodes)
	}
	// The simple random hammock is DHP-eligible.
	p2, _ := randomHammockProg(1500)
	profiled(t, p2)
	st2 := runBoth(t, p2, DHPConfig())
	if st2.Episodes == 0 {
		t.Error("DHP never predicated a simple hammock")
	}
}

func TestEnhancedDMP(t *testing.T) {
	p, _ := randomHammockProg(2500)
	profiled(t, p)
	st := runBoth(t, p, EnhancedDMPConfig())
	if st.Episodes == 0 {
		t.Error("enhanced DMP never entered predication")
	}
}

func TestDualPath(t *testing.T) {
	p, _ := randomHammockProg(2000)
	cfg := DefaultConfig()
	cfg.Mode = ModeDualPath
	st := runBoth(t, p, cfg)
	if st.Episodes == 0 {
		t.Error("dual-path never forked")
	}
	if st.ExitCases[Exit2] == 0 {
		t.Error("dual-path absorbed no mispredictions")
	}
}

func TestDMPWithSmallWindowAndShallowPipe(t *testing.T) {
	for _, rob := range []int{128, 256} {
		for _, depth := range []int{10, 20} {
			p, _ := randomHammockProg(1200)
			profiled(t, p)
			cfg := EnhancedDMPConfig()
			cfg.ROBSize = rob
			cfg.PipelineDepth = depth
			runBoth(t, p, cfg)
		}
	}
}

func TestNeverLowConfidenceEqualsBaselineRetirement(t *testing.T) {
	// With a never-low estimator, the DMP machine must never predicate.
	p, _ := randomHammockProg(1000)
	profiled(t, p)
	cfg := DMPConfig()
	cfg.ConfidenceName = "never-low"
	st := runBoth(t, p, cfg)
	if st.Episodes != 0 {
		t.Errorf("never-low confidence still created %d episodes", st.Episodes)
	}
}

func TestAlwaysLowConfidenceStress(t *testing.T) {
	// Predicating every fetch of the diverge branch stresses every exit
	// case and the checkpoint machinery.
	p, _ := randomHammockProg(1500)
	profiled(t, p)
	cfg := EnhancedDMPConfig()
	cfg.ConfidenceName = "always-low"
	st := runBoth(t, p, cfg)
	if st.Episodes == 0 {
		t.Error("always-low confidence created no episodes")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBSize = 2
	if _, err := New(sumLoop(1), bad); err == nil {
		t.Error("tiny ROB accepted")
	}
	bad2 := DefaultConfig()
	bad2.PredictorName = "nonsense"
	if _, err := New(sumLoop(1), bad2); err == nil {
		t.Error("unknown predictor accepted")
	}
	bad3 := DefaultConfig()
	bad3.ConfidenceName = "nonsense"
	if _, err := New(sumLoop(1), bad3); err == nil {
		t.Error("unknown estimator accepted")
	}
}

func TestMaxInstsStopsRun(t *testing.T) {
	p, _ := randomHammockProg(1_000_000)
	cfg := DefaultConfig()
	cfg.MaxInsts = 20_000
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, m, st)
	if st.RetiredInsts < 20_000 || st.RetiredInsts > 21_000 {
		t.Errorf("retired %d, want ~20000", st.RetiredInsts)
	}
}

func TestPredictorVariants(t *testing.T) {
	for _, name := range []string{"perceptron", "gshare", "bimodal", "hybrid"} {
		p, _ := randomHammockProg(800)
		cfg := DefaultConfig()
		cfg.PredictorName = name
		runBoth(t, p, cfg)
	}
}

// checkStats fails the test unless st, a finished run's Stats, are the
// machine's own and obey the accounting's conservation laws
// (Machine.CheckStats).
func checkStats(t testing.TB, m *Machine, st *Stats) {
	t.Helper()
	if st != &m.Stats {
		t.Fatal("run returned Stats that are not the machine's")
	}
	if err := m.CheckStats(); err != nil {
		t.Fatal(err)
	}
}
