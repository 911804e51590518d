// Command dmpgen generates, verifies, minimizes and replays random
// lint-clean programs (internal/gen), and drives the differential
// verification harness: every generated program is swept through lint
// (any diagnostic is a generator bug), the functional emulator (the
// golden model; a lint-clean program faulting here is a lint-soundness
// counterexample), the full machine-configuration matrix (baseline, DMP
// with annotated/dynamic/hybrid CFM sources, loop diverge, dual-path,
// DHP — all must retire the emulator's exact architectural state), and
// optionally the sampled-simulation accounting invariants.
//
// Usage:
//
//	dmpgen -n 200                  # sweep seeds 1..200 through the harness
//	dmpgen -n 50 -start 1000       # a different seed range
//	dmpgen -n 25 -iters 400 -sample  # longer programs + sampled-leg checks
//	dmpgen -seed 7                 # verify one seed
//	dmpgen -seed 7 -dump           # print its program and annotations
//	dmpgen -corpus .               # (re)write fuzz seed-corpus files
//
// On any divergence dmpgen shrinks the failing program to a minimal
// reproducer of the same divergence stage (the shrinker only applies
// mutations that keep the failure alive and every intermediate stays
// lint-clean by construction), prints the minimized program and the
// exact replay command, and exits 1. Exit status: 0 all seeds clean,
// 1 divergence found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dmp/internal/gen"
	"dmp/internal/gen/diff"
	"dmp/internal/prog"
)

func main() {
	var (
		n          = flag.Int("n", 0, "sweep this many seeds through the differential harness")
		start      = flag.Uint64("start", 1, "first seed of the sweep")
		seed       = flag.Uint64("seed", 0, "verify a single seed (0 = none)")
		iters      = flag.Int("iters", 0, "driver-loop trips per program (0 = generator default)")
		depth      = flag.Int("depth", 0, "max structural nesting depth (0 = default)")
		stmts      = flag.Int("stmts", 0, "top-level statements in the driver body (0 = default)")
		noAnnotate = flag.Bool("no-annotate", false, "disable the CFM-annotation synthesizer")
		doSample   = flag.Bool("sample", false, "also check sampled-vs-exact accounting invariants")
		dump       = flag.Bool("dump", false, "with -seed: print the generated program")
		noMinimize = flag.Bool("no-minimize", false, "report divergences without shrinking")
		corpus     = flag.String("corpus", "", "write fuzz seed-corpus files under this repo root and exit")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dmpgen: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	base := gen.DefaultOptions(0)
	base.Iters = *iters
	if *depth > 0 {
		base.MaxDepth = *depth
	}
	if *stmts > 0 {
		base.Stmts = *stmts
	}
	base.Annotate = !*noAnnotate
	dopts := diff.DiffOptions{Sample: *doSample}

	switch {
	case *corpus != "":
		if err := writeCorpus(*corpus, base); err != nil {
			fmt.Fprintf(os.Stderr, "dmpgen: corpus: %v\n", err)
			os.Exit(1)
		}
	case *seed != 0:
		if *dump {
			dumpSeed(*seed, base)
		}
		if div := diff.VerifySeed(*seed, base, dopts); div != nil {
			reportDivergence(div, base, dopts, *noMinimize)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("dmpgen: seed %d clean\n", *seed)
		}
	case *n > 0:
		sweep(*start, *n, base, dopts, *quiet, *noMinimize)
	default:
		fmt.Fprintln(os.Stderr, "dmpgen: need -n, -seed or -corpus (see -h)")
		os.Exit(2)
	}
}

// sweep runs the differential harness over a contiguous seed range,
// shrinking and reporting the first divergence.
func sweep(start uint64, n int, base gen.Options, dopts diff.DiffOptions, quiet, noMinimize bool) {
	var insts, annos int
	for i := 0; i < n; i++ {
		s := start + uint64(i)
		if div := diff.VerifySeed(s, base, dopts); div != nil {
			reportDivergence(div, base, dopts, noMinimize)
			os.Exit(1)
		}
		o := base
		o.Seed = s
		p := gen.Generate(o)
		insts += len(p.Code)
		annos += len(p.Diverge)
		if !quiet && (i+1)%50 == 0 {
			fmt.Printf("dmpgen: %d/%d seeds clean\n", i+1, n)
		}
	}
	fmt.Printf("dmpgen: %d seeds clean (%d static insts, %d synthesized annotations)\n",
		n, insts, annos)
}

// reportDivergence shrinks the failing seed to a minimal program still
// diverging at the same stage, then prints a replayable report.
func reportDivergence(div *diff.Divergence, base gen.Options, dopts diff.DiffOptions, noMinimize bool) {
	fmt.Fprintf(os.Stderr, "dmpgen: DIVERGENCE: %v\n", div)
	o := base
	o.Seed = div.Seed
	g := gen.New(o)
	min := g
	if !noMinimize {
		stage := div.Stage
		var steps int
		min, steps = gen.Shrink(g, func(p *prog.Program) bool {
			d := diff.Verify(p, dopts)
			return d != nil && d.Stage == stage
		})
		fmt.Fprintf(os.Stderr, "dmpgen: minimized in %d steps: %d -> %d instructions, %d trips\n",
			steps, len(g.Prog.Code), len(min.Prog.Code), min.Opts.Iters)
	}
	fmt.Fprintf(os.Stderr, "--- minimized reproducer (structure seed %d) ---\n%s",
		div.Seed, min.Prog.Disassemble())
	for _, pc := range min.Prog.DivergePCs() {
		d := min.Prog.DivergeAt(pc)
		fmt.Fprintf(os.Stderr, "diverge %d: cfms=%v class=%v loop=%v thr=%d\n",
			pc, d.CFMs, d.Class, d.Loop, d.ExitThreshold)
	}
	fmt.Fprintf(os.Stderr, "replay: go run ./cmd/dmpgen -seed %d", div.Seed)
	if base.Iters > 0 {
		fmt.Fprintf(os.Stderr, " -iters %d", base.Iters)
	}
	if dopts.Sample {
		fmt.Fprint(os.Stderr, " -sample")
	}
	fmt.Fprintln(os.Stderr)
}

// dumpSeed prints the generated program, annotations, and data summary.
func dumpSeed(seed uint64, base gen.Options) {
	o := base
	o.Seed = seed
	g := gen.New(o)
	p := g.Prog
	fmt.Printf("# structure seed %d: %d instructions, %d data words, %d annotations, entry %d\n",
		seed, len(p.Code), len(p.Data), len(p.Diverge), p.Entry)
	fmt.Print(p.Disassemble())
	for _, pc := range p.DivergePCs() {
		d := p.DivergeAt(pc)
		fmt.Printf("diverge %d: cfms=%v class=%v loop=%v thr=%d\n",
			pc, d.CFMs, d.Class, d.Loop, d.ExitThreshold)
	}
}

// writeCorpus refreshes the committed fuzz seed corpora with
// generator-selected edge cases: the seeds (within a scan window) whose
// programs maximize each rare feature — loop-diverge annotations,
// multiple CFM points, synthesized-annotation count, code size — plus
// boundary iteration counts. Both internal/gen's fuzz targets and
// internal/core's FuzzLintEmuSoundness corpus are seeded.
func writeCorpus(root string, base gen.Options) error {
	type pick struct {
		name        string
		seed, iters uint64
	}
	best := map[string]pick{}
	score := map[string]int{}
	consider := func(what string, val int, s, it uint64) {
		if val > score[what] {
			score[what] = val
			best[what] = pick{what, s, it}
		}
	}
	for s := uint64(1); s <= 300; s++ {
		o := base
		o.Seed = s
		p := gen.Generate(o)
		loopDiv, multi := 0, 0
		for _, pc := range p.DivergePCs() {
			d := p.DivergeAt(pc)
			if d.Loop {
				loopDiv++
			}
			if len(d.CFMs) > 1 {
				multi++
			}
		}
		consider("loopdiv", loopDiv, s, 24)
		consider("multicfm", multi, s, 24)
		consider("annos", len(p.Diverge), s, 24)
		consider("size", len(p.Code), s, 24)
	}
	picks := []pick{
		{"iters1", 1, 1}, {"iters199", 2, 199},
		best["loopdiv"], best["multicfm"], best["annos"], best["size"],
	}

	write := func(dir, name, body string) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
	}
	for _, pk := range picks {
		name := fmt.Sprintf("gen-%s", pk.name)
		genBody := fmt.Sprintf("go test fuzz v1\nuint64(%d)\nuint64(%d)\n", pk.seed, pk.iters)
		coreBody := fmt.Sprintf("go test fuzz v1\nint64(%d)\nint64(%d)\n", pk.seed, pk.iters)
		for _, dir := range []string{
			filepath.Join(root, "internal", "gen", "testdata", "fuzz", "FuzzGeneratedLintClean"),
			filepath.Join(root, "internal", "gen", "diff", "testdata", "fuzz", "FuzzGeneratedDifferential"),
		} {
			if err := write(dir, name, genBody); err != nil {
				return err
			}
		}
		dir := filepath.Join(root, "internal", "core", "testdata", "fuzz", "FuzzLintEmuSoundness")
		if err := write(dir, name, coreBody); err != nil {
			return err
		}
		fmt.Printf("dmpgen: corpus %s: seed=%d iters=%d\n", pk.name, pk.seed, pk.iters)
	}
	return nil
}
