// Command dmplint statically checks DMP programs and their
// diverge-branch annotations: code-image legality (opcodes, targets,
// fallthrough off the end), reachability, call/return discipline,
// def-before-use dataflow, and the CFM legality rules the profiler's
// heuristics are supposed to guarantee (every CFM reachable on both
// paths within the distance bound, class and loop flags consistent with
// the CFG, regions properly nested).
//
// Usage:
//
//	dmplint all                 # every benchmark, post-profile annotations
//	dmplint -scale 1 mcf twolf  # a subset at another scale
//	dmplint -asm prog.s         # an assembly file (annotations via -profile)
//
// Exit status: 0 when no Error-severity diagnostics were found (with
// -werror: no diagnostics at all), 1 otherwise, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"dmp/internal/exp"
	"dmp/internal/lint"
	"dmp/internal/workload"
)

func main() {
	var (
		scale   = flag.Int("scale", 3, "workload scale factor")
		strict  = flag.Bool("strict", false, "enable the path-sensitive maybe-undef dataflow check")
		maxDist = flag.Int("maxdist", 0, "CFM distance bound (0 = profiler default)")
		werror  = flag.Bool("werror", false, "treat warnings as errors for the exit status")
		asm     = flag.String("asm", "", "lint an assembly file instead of benchmarks")
		doProf  = flag.Bool("profile", false, "with -asm: run the profiler before linting annotations")
	)
	flag.Parse()

	opts := lint.Options{MaxDist: *maxDist, StrictUninit: *strict}

	var total lint.Diags
	names := flag.Args()
	switch {
	case *asm != "":
		names = []string{*asm}
	case len(names) == 0:
		fmt.Fprintln(os.Stderr, "dmplint: specify benchmark names or 'all' (or -asm file)")
		os.Exit(2)
	case len(names) == 1 && names[0] == "all":
		names = workload.Names()
	}
	for _, name := range names {
		p, err := exp.Load(name, *asm, *scale, *doProf)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		total = append(total, report(name, lint.Check(p, opts))...)
	}

	if len(total) == 0 {
		fmt.Println("dmplint: clean")
		return
	}
	errs := len(total.Errors())
	fmt.Fprintf(os.Stderr, "dmplint: %d finding(s), %d error(s)\n", len(total), errs)
	if errs > 0 || *werror {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dmplint: %d warning(s) suppressed (use -werror to fail on them)\n",
		len(total)-errs)
}

// report prints every diagnostic prefixed with the program name and
// returns them for aggregation.
func report(name string, ds lint.Diags) lint.Diags {
	for _, d := range ds {
		fmt.Printf("%s: %s\n", name, d)
	}
	return ds
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dmplint: "+format+"\n", args...)
	os.Exit(1)
}
