package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dmp/internal/emu"
	"dmp/internal/lint"
	"dmp/internal/profile"
)

// progPrint renders everything observable about a generated program:
// code (via the disassembler), entry, annotations, and data words.
// Byte-equal renderings mean byte-equal programs.
func progPrint(t *testing.T, g *Generated) string {
	t.Helper()
	p := g.Prog
	s := fmt.Sprintf("entry=%d\n%s", p.Entry, p.Disassemble())
	for _, pc := range p.DivergePCs() {
		d := p.DivergeAt(pc)
		s += fmt.Sprintf("diverge %d: cfms=%v class=%v thr=%d loop=%v\n",
			pc, d.CFMs, d.Class, d.ExitThreshold, d.Loop)
	}
	// Data in sorted order.
	addrs := make([]uint64, 0, len(p.Data))
	for a := range p.Data {
		addrs = append(addrs, a)
	}
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if addrs[j] < addrs[i] {
				addrs[i], addrs[j] = addrs[j], addrs[i]
			}
		}
	}
	for _, a := range addrs {
		s += fmt.Sprintf("data %#x=%d\n", a, p.Data[a])
	}
	return s
}

// TestGeneratedPopulationPinned pins the generated population: the
// SHA-256 over seeds 1-50's program hashes (code image, data and
// annotations) under DefaultOptions. A change that moves it changes
// every committed fuzz corpus entry and every seed a divergence report
// names, so it must be deliberate.
func TestGeneratedPopulationPinned(t *testing.T) {
	const want = "e715502192dd221e338da498956e82e8c95c0f01208b0d8032735de4d9f1d52b"
	h := sha256.New()
	for seed := uint64(1); seed <= 50; seed++ {
		fmt.Fprintln(h, Generate(DefaultOptions(seed)).Hash())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("seeds 1-50 hash to %s, want %s", got, want)
	}
}

// TestGeneratedWorkloadsLintClean is the population-scale generator
// contract: across ≥500 structure seeds, every generated program —
// synthesized annotations included — is completely diagnostic-clean,
// warnings and all. Any diagnostic is a generator bug by definition.
func TestGeneratedWorkloadsLintClean(t *testing.T) {
	n := uint64(500)
	if testing.Short() {
		n = 60
	}
	annotated := 0
	for seed := uint64(1); seed <= n; seed++ {
		p := Generate(DefaultOptions(seed))
		if ds := lint.Check(p, lint.Options{}); len(ds) > 0 {
			t.Fatalf("seed %d: generated program drew %d diagnostic(s):\n%s\n%s",
				seed, len(ds), ds, p.Disassemble())
		}
		annotated += len(p.Diverge)
	}
	if annotated == 0 {
		t.Fatalf("no seed produced any synthesized annotation — the synthesizer is dead")
	}
	t.Logf("%d seeds, %d synthesized annotations", n, annotated)
}

// TestGenerateDeterministic pins byte-identical re-generation: the same
// Options must reproduce the same program, annotations and data
// included, and the tree must carry all randomness (clone + re-emit is
// also identical).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		o := DefaultOptions(seed)
		a := New(o)
		b := New(o)
		fa, fb := progPrint(t, a), progPrint(t, b)
		if fa != fb {
			t.Fatalf("seed %d: two generations differ:\n--- a\n%s\n--- b\n%s", seed, fa, fb)
		}
		// Re-emit from a cloned tree: node-local seeds must fully
		// determine emission.
		c := &Generated{Opts: o, Root: a.Root.clone(), Fns: a.Fns}
		c.Prog = Emit(c.Root, c.Fns, o)
		if fc := progPrint(t, c); fc != fa {
			t.Fatalf("seed %d: clone re-emit differs", seed)
		}
	}
}

// TestDataSeedMovesOnlyData pins the train/ref contract internal/exp
// depends on: changing DataSeed changes data words (and hence machine
// state) but not one instruction of the code image.
func TestDataSeedMovesOnlyData(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		o := DefaultOptions(seed)
		a := Generate(o)
		o2 := o
		o2.DataSeed = 0xdead0000 + seed
		b := Generate(o2)
		if a.Disassemble() != b.Disassemble() {
			t.Fatalf("seed %d: DataSeed moved the code image", seed)
		}
		if a.Entry != b.Entry {
			t.Fatalf("seed %d: DataSeed moved the entry", seed)
		}
		same := true
		for addr, v := range a.Data {
			if b.Data[addr] != v {
				same = false
				break
			}
		}
		if same {
			t.Errorf("seed %d: different DataSeed produced identical data", seed)
		}
	}
}

// TestItersMovesOnlyOneImmediate: the dynamic-length knob must not move
// code layout (annotation PCs transfer across scales).
func TestItersMovesOnlyOneImmediate(t *testing.T) {
	o := DefaultOptions(7)
	a := Generate(o)
	o2 := o
	o2.Iters = 999
	b := Generate(o2)
	if len(a.Code) != len(b.Code) {
		t.Fatalf("Iters changed code length: %d vs %d", len(a.Code), len(b.Code))
	}
	diff := 0
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("Iters changed %d instructions, want exactly 1 (the LI immediate)", diff)
	}
}

// TestGeneratedFeatureCoverage checks the population actually contains
// the advertised shapes (loops, calls, complex regions, loop-diverge and
// multi-CFM annotations) rather than degenerating to straight-line code.
func TestGeneratedFeatureCoverage(t *testing.T) {
	var loops, calls, complexes, loopDiv, multiCFM, simple, complexClass int
	for seed := uint64(1); seed <= 60; seed++ {
		g := New(DefaultOptions(seed))
		var walk func(n *Node)
		walk = func(n *Node) {
			switch n.Kind {
			case KLoop:
				loops++
			case KCall:
				calls++
			case KComplex:
				complexes++
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(g.Root)
		for _, pc := range g.Prog.DivergePCs() {
			d := g.Prog.DivergeAt(pc)
			if d.Loop {
				loopDiv++
			}
			if len(d.CFMs) > 1 {
				multiCFM++
			}
			if d.Class == 1 { // prog.ClassSimpleHammock
				simple++
			} else {
				complexClass++
			}
		}
	}
	for name, n := range map[string]int{
		"loops": loops, "calls": calls, "complex-regions": complexes,
		"loop-diverge-annotations": loopDiv, "multi-cfm-annotations": multiCFM,
		"simple-hammock-annotations": simple, "complex-annotations": complexClass,
	} {
		if n == 0 {
			t.Errorf("population has zero %s", name)
		}
	}
	t.Logf("loops=%d calls=%d complex=%d loopDiv=%d multiCFM=%d simple=%d complexClass=%d",
		loops, calls, complexes, loopDiv, multiCFM, simple, complexClass)
}

// TestGenWorkloadProfileAnnotationsLint mirrors the hand-built suite's
// lint gate on the generated-workload path: an unannotated gen program
// profiled by internal/profile must come out diagnostic-error-free.
func TestGenWorkloadProfileAnnotationsLint(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		o := DefaultOptions(seed)
		o.Annotate = false
		o.Iters = 100
		p := Generate(o)
		if _, err := profile.Run(p, profile.DefaultOptions()); err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		if ds := lint.Check(p, lint.Options{}); ds.HasErrors() {
			t.Fatalf("seed %d: profiler annotations on generated program fail lint:\n%s", seed, ds.Errors())
		}
	}
}

// FuzzGeneratedLintClean is the native fuzz form of the generator
// contract: any (seed, iters) yields a lint-clean program that halts on
// the emulator.
func FuzzGeneratedLintClean(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(24))
	}
	f.Fuzz(func(t *testing.T, seed, iters uint64) {
		o := DefaultOptions(seed)
		o.Iters = int(iters%200) + 1
		p := Generate(o)
		if ds := lint.Check(p, lint.Options{}); len(ds) > 0 {
			t.Fatalf("seed=%d iters=%d: diagnostics:\n%s", seed, o.Iters, ds)
		}
		e := emu.New(p)
		if _, err := e.Run(5_000_000); err != nil {
			t.Fatalf("seed=%d iters=%d: lint-clean program faulted: %v", seed, o.Iters, err)
		}
		if !e.Halted {
			t.Fatalf("seed=%d iters=%d: lint-clean program hit the step cap", seed, o.Iters)
		}
	})
}
