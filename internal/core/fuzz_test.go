package core

import (
	"math/rand"
	"testing"

	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/lint"
	"dmp/internal/profile"
	"dmp/internal/prog"
)

// genProgram emits a random structured program: nested hammocks (biased
// and unbiased), bounded loops, leaf calls, and scratch-memory traffic,
// always halting. Together with the golden-model retirement checker this
// cross-validates the whole machine against the functional emulator on
// control-flow shapes no hand-written test covers.
type progGen struct {
	b     *prog.Builder
	r     *rand.Rand
	label int
	depth int
}

func (g *progGen) fresh(prefix string) string {
	g.label++
	return prefix + "_" + itoa(g.label)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// scratch registers the generator mutates freely.
var genRegs = []isa.Reg{4, 5, 6, 7, 10, 11, 12}

func (g *progGen) reg() isa.Reg { return genRegs[g.r.Intn(len(genRegs))] }

// stmt emits one random statement.
func (g *progGen) stmt() {
	b := g.b
	switch g.r.Intn(10) {
	case 0, 1, 2: // ALU
		switch g.r.Intn(5) {
		case 0:
			b.Add(g.reg(), g.reg(), g.reg())
		case 1:
			b.Xor(g.reg(), g.reg(), g.reg())
		case 2:
			b.Addi(g.reg(), g.reg(), int64(g.r.Intn(100)-50))
		case 3:
			b.Muli(g.reg(), g.reg(), int64(g.r.Intn(7)+1))
		case 4:
			b.Shri(g.reg(), g.reg(), int64(g.r.Intn(8)))
		}
	case 3: // memory
		r1 := g.reg()
		b.Andi(3, r1, 127)
		b.Shli(3, 3, 3)
		if g.r.Intn(2) == 0 {
			b.St(g.reg(), 3, 0x7000)
		} else {
			b.Ld(g.reg(), 3, 0x7000)
		}
	case 4, 5, 6: // hammock (possibly nested)
		g.hammock()
	case 7: // bounded loop
		g.loop()
	case 8: // scramble the rng register (keeps branches lively)
		b.Muli(1, 1, 6364136223846793005)
		b.Addi(1, 1, 1442695040888963407)
	case 9: // call a leaf
		b.Call("leaf" + itoa(g.r.Intn(3)))
	}
}

// hammock emits if or if-else with a random condition bias and random
// arm contents (recursing while depth allows).
func (g *progGen) hammock() {
	b := g.b
	then := g.fresh("t")
	join := g.fresh("j")
	// Condition: random bit (hard) or low-bits test (biased).
	bit := int64(g.r.Intn(40) + 10)
	b.Shri(3, 1, bit)
	b.Andi(3, 3, int64(1<<uint(g.r.Intn(3))-1)|1)
	b.Br(isa.EQ, 3, isa.Zero, then)
	g.arm()
	if g.r.Intn(2) == 0 { // if-else
		b.Jmp(join)
		b.Label(then)
		g.arm()
		b.Label(join)
	} else { // plain if: "then" label is the join
		b.Label(then)
	}
}

func (g *progGen) arm() {
	g.depth++
	n := g.r.Intn(3) + 1
	for i := 0; i < n; i++ {
		if g.depth > 3 {
			g.b.Addi(g.reg(), g.reg(), 1)
		} else {
			g.stmt()
		}
	}
	g.depth--
}

// loop emits a small bounded counter loop.
func (g *progGen) loop() {
	b := g.b
	head := g.fresh("l")
	trips := int64(g.r.Intn(4) + 1)
	b.Li(9, trips)
	b.Label(head)
	g.depth += 2 // discourage deep nesting inside loops
	n := g.r.Intn(2) + 1
	for i := 0; i < n; i++ {
		g.stmt()
	}
	g.depth -= 2
	b.Subi(9, 9, 1)
	b.Br(isa.GT, 9, isa.Zero, head)
}

// genProg builds a complete random program with an iteration driver.
func genProg(seed int64, iters int64) *prog.Program {
	g := &progGen{b: prog.NewBuilder(), r: rand.New(rand.NewSource(seed))}
	b := g.b
	b.Entry("main")
	// Three leaf functions.
	for i := 0; i < 3; i++ {
		b.Label("leaf" + itoa(i))
		b.Addi(isa.Reg(10+i), isa.Reg(10+i), int64(i+1))
		b.Xor(5, 5, isa.Reg(10+i))
		b.Ret()
	}
	b.Label("main")
	b.Li(1, seed|1)
	b.Li(2, iters)
	b.Label("outer")
	b.Muli(1, 1, 6364136223846793005)
	b.Addi(1, 1, 1442695040888963407)
	n := g.r.Intn(6) + 4
	for i := 0; i < n; i++ {
		g.stmt()
	}
	b.Subi(2, 2, 1)
	b.Br(isa.GT, 2, isa.Zero, "outer")
	b.St(4, isa.Zero, 0x900)
	b.Halt()
	return b.MustBuild()
}

// fuzzModes are the configurations cross-validated on random programs.
func fuzzModes() map[string]Config {
	enhLoops := EnhancedDMPConfig()
	enhLoops.EnableLoopDiverge = true
	dual := DefaultConfig()
	dual.Mode = ModeDualPath
	perf := DefaultConfig()
	perf.Mode = ModePerfect
	dmpPerf := DMPConfig()
	dmpPerf.ConfidenceName = "perfect"
	stress := EnhancedDMPConfig()
	stress.ConfidenceName = "always-low"
	return map[string]Config{
		"baseline":     DefaultConfig(),
		"perfect":      perf,
		"dmp":          DMPConfig(),
		"dmp-perfconf": dmpPerf,
		"dhp":          DHPConfig(),
		"enhanced":     EnhancedDMPConfig(),
		"enh-loops":    enhLoops,
		"dualpath":     dual,
		"stress":       stress,
	}
}

func TestFuzzRandomProgramsAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	for seed := int64(1); seed <= 12; seed++ {
		p := genProg(seed, 300)
		// Reference execution.
		ref := emu.New(p)
		if _, err := ref.Run(2_000_000); err != nil {
			t.Fatalf("seed %d: emulator: %v", seed, err)
		}
		if !ref.Halted {
			t.Fatalf("seed %d: program did not halt", seed)
		}
		// Profile (marks diverge branches; loop marking for enh-loops).
		popts := profile.DefaultOptions()
		popts.IncludeLoops = true
		if _, err := profile.Run(p, popts); err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		for name, cfg := range fuzzModes() {
			m, err := New(p, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("seed %d %s: %v\nstats: %v", seed, name, err, st)
			}
			checkStats(t, m, st)
			if !st.HaltRetired {
				t.Fatalf("seed %d %s: did not halt (%v)", seed, name, st)
			}
			if st.RetiredInsts != ref.Count {
				t.Errorf("seed %d %s: retired %d, emulator %d", seed, name, st.RetiredInsts, ref.Count)
			}
			for r := 0; r < isa.NumRegs; r++ {
				if got, want := m.CommittedReg(isa.Reg(r)), ref.Reg(isa.Reg(r)); got != want {
					t.Errorf("seed %d %s: r%d = %d, want %d", seed, name, r, got, want)
				}
			}
			ref.Mem.Each(func(addr, val uint64) {
				if got := m.CommittedMem(addr); got != val {
					t.Errorf("seed %d %s: mem[%#x] = %d, want %d", seed, name, addr, got, val)
				}
			})
		}
	}
}

// TestFuzzSmallWindows runs a subset of seeds on small, stress-prone
// machine geometries (tiny ROB, shallow and deep pipes, single-ported).
func TestFuzzSmallWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	geoms := []func(*Config){
		func(c *Config) { c.ROBSize = 16; c.StoreBufferSize = 4 },
		func(c *Config) { c.PipelineDepth = 5; c.FetchWidth = 2; c.FetchQueueSize = 4 },
		func(c *Config) { c.PipelineDepth = 40; c.IssueWidth = 1; c.LoadPorts = 1 },
		func(c *Config) { c.SelectUopsPerCycle = 1; c.RetireWidth = 1 },
	}
	for seed := int64(20); seed <= 25; seed++ {
		p := genProg(seed, 150)
		ref := emu.New(p)
		if _, err := ref.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		popts := profile.DefaultOptions()
		popts.IncludeLoops = true
		if _, err := profile.Run(p, popts); err != nil {
			t.Fatal(err)
		}
		for gi, tweak := range geoms {
			cfg := EnhancedDMPConfig()
			cfg.EnableLoopDiverge = true
			tweak(&cfg)
			m, err := New(p, cfg)
			if err != nil {
				t.Fatalf("seed %d geom %d: %v", seed, gi, err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("seed %d geom %d: %v", seed, gi, err)
			}
			checkStats(t, m, st)
			if st.RetiredInsts != ref.Count {
				t.Errorf("seed %d geom %d: retired %d, want %d", seed, gi, st.RetiredInsts, ref.Count)
			}
		}
	}
}

// TestFuzzLintSoundness pins the lint package's soundness contract on
// random structured programs: the generator only emits statically legal
// images (lint.Program reports no errors), a lint-clean image runs to
// completion on the functional emulator, and the profiler's annotations
// on arbitrary generated CFGs always satisfy the annotation legality
// rules (lint.Check stays error-free after profiling).
func TestFuzzLintSoundness(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= n; seed++ {
		p := genProg(seed, 60)
		if ds := lint.Program(p); ds.HasErrors() {
			t.Fatalf("seed %d: generator emitted a lint-illegal program:\n%s", seed, ds.Errors())
		}
		ref := emu.New(p)
		if _, err := ref.Run(2_000_000); err != nil {
			t.Fatalf("seed %d: lint-clean program faulted on the emulator: %v", seed, err)
		}
		if !ref.Halted {
			t.Fatalf("seed %d: lint-clean program did not halt", seed)
		}
		popts := profile.DefaultOptions()
		popts.IncludeLoops = seed%2 == 0
		if _, err := profile.Run(p, popts); err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		if ds := lint.Check(p, lint.Options{}); ds.HasErrors() {
			t.Fatalf("seed %d: profiler annotations fail lint:\n%s", seed, ds.Errors())
		}
	}
}

// FuzzLintEmuSoundness is the native fuzz entry for the same contract:
// for any (seed, iters), the generated program must be lint-error-free
// and must run to completion on the emulator without a fault.
func FuzzLintEmuSoundness(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, int64(60))
	}
	f.Fuzz(func(t *testing.T, seed, iters int64) {
		iters %= 300
		if iters < 0 {
			iters = -iters
		}
		p := genProg(seed, iters)
		if ds := lint.Program(p); ds.HasErrors() {
			t.Fatalf("lint-illegal generated program (seed=%d iters=%d):\n%s", seed, iters, ds.Errors())
		}
		e := emu.New(p)
		if _, err := e.Run(5_000_000); err != nil {
			t.Fatalf("lint-clean program faulted (seed=%d iters=%d): %v", seed, iters, err)
		}
		if !e.Halted {
			t.Fatalf("lint-clean program hit the step cap (seed=%d iters=%d)", seed, iters)
		}
	})
}
