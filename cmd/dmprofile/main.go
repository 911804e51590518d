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
	"os"

	"dmp/internal/exp"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark name")
		asm     = flag.String("asm", "", "assembly file")
		scale   = flag.Int("scale", 3, "workload scale")
		postdom = flag.Bool("postdom", false, "use immediate post-dominator CFM selection (ablation)")
		loops   = flag.Bool("loops", false, "mark diverge loop branches too (2.7.4)")
		share   = flag.Float64("share", 0.001, "minimum misprediction share for a candidate")
		frac    = flag.Float64("frac", 0.2, "minimum reconvergence fraction for a CFM point")
		dist    = flag.Int("dist", 120, "maximum dynamic distance to a CFM point")
		dis     = flag.Bool("dis", false, "also print the annotated disassembly")
	)
	flag.Parse()

	var p *prog.Program
	switch {
	case *asm != "":
		var err error
		if p, err = exp.Load("", *asm, 0, false, false); err != nil {
			fatal("%v", err)
		}
	case *bench != "":
		w, err := workload.ByName(*bench)
		if err != nil {
			fatal("%v", err)
		}
		p = w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: *scale})
	default:
		fatal("need -bench or -asm")
	}

	opts := profile.DefaultOptions()
	opts.UsePostDom = *postdom
	opts.IncludeLoops = *loops
	opts.MispredictShare = *share
	opts.ReconvergeFrac = *frac
	opts.MaxDist = *dist

	rep, err := profile.Run(p, opts)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(rep.String())
	if *dis {
		fmt.Println()
		fmt.Print(p.Disassemble())
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dmprofile: "+format+"\n", args...)
	os.Exit(1)
}
