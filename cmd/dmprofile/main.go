// Command dmprofile runs the compiler-side profiling pass (Section 3.2 of
// the paper) on a benchmark or assembly file and prints the resulting
// diverge-branch / CFM-point table.
//
// Usage:
//
//	dmprofile -bench parser
//	dmprofile -asm prog.s -postdom
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dmp/internal/exp"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it writes the report to stdout and
// diagnostics to stderr, and returns the process exit status (2 for a
// bad flag, 1 for anything else that stops it).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmprofile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "", "benchmark name")
		asm     = fs.String("asm", "", "assembly file")
		scale   = fs.Int("scale", 3, "workload scale")
		postdom = fs.Bool("postdom", false, "use immediate post-dominator CFM selection (ablation)")
		share   = fs.Float64("share", 0.001, "minimum misprediction share for a candidate")
		frac    = fs.Float64("frac", 0.2, "minimum reconvergence fraction for a CFM point")
		dist    = fs.Int("dist", 120, "maximum dynamic distance to a CFM point")
		dis     = fs.Bool("dis", false, "also print the annotated disassembly")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dmprofile: %v\n", err)
		return 1
	}

	var p *prog.Program
	switch {
	case *asm != "":
		var err error
		if p, err = exp.Load("", *asm, 0, false); err != nil {
			return fail(err)
		}
	case *bench != "":
		w, err := workload.ByName(*bench)
		if err != nil {
			return fail(err)
		}
		p = w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: *scale})
	default:
		return fail(fmt.Errorf("need -bench or -asm"))
	}

	opts := profile.DefaultOptions()
	opts.UsePostDom = *postdom
	opts.MispredictShare = *share
	opts.ReconvergeFrac = *frac
	opts.MaxDist = *dist

	rep, err := profile.Run(p, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, rep.String())
	if *dis {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, p.Disassemble())
	}
	return 0
}
