// Command dmpbench is the simulator's benchmark: four workloads, each
// measured end to end (untraced) and layer by layer (traced), with every
// output checked. See README.md for the workloads, the metrics and how
// to compare two sets of runs.
//
// Usage:
//
//	dmpbench -seed N [-seconds S] [-trace DIR] [-out FILE] [-smoke]
//	dmpbench -workload NAME -seed N -seconds S -trace 0|1|DIR
//	dmpbench -compare A/*.json B/*.json
//
// Without -workload every workload runs, each in a child process of its
// own, because exp's program and result caches, sched's worker pool and
// the metrics registry are all process-global. -trace reruns each
// workload traced and writes DIR/<workload>/spans.json and layers.json.
//
// With -workload one workload runs in this process. It prints each
// metric as "workload metric value unit" and, as the last line of
// standard output, a JSON object with keys correct, attempted, failed
// and metrics: the end-to-end metrics with -trace 0, the per-layer ones
// otherwise (-trace 1 writes its artifacts under .bench_build/trace).
//
// The exit status is 0 when every output was correct, 1 when a check
// failed (the result is still printed), and 2 when the benchmark could
// not run (no result is printed).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultTraceDir is where -trace 1 writes, relative to the working
// directory; the benchmark's build output lives beside it.
const defaultTraceDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload, in this process")
		seed    = fs.Int64("seed", 1, "seed the workloads' inputs are made from")
		seconds = fs.Float64("seconds", 20, "measuring time per workload, in seconds; each makes at least its minimum rounds")
		trace   = fs.String("trace", "0", "0: untraced (end-to-end metrics); 1 or a directory: traced (per-layer metrics, spans.json, layers.json)")
		out     = fs.String("out", "", "write the outcomes as JSON to this file, for -compare")
		smoke   = fs.Bool("smoke", false, "run each workload at its smallest size")
		compare = fs.Bool("compare", false, "compare two sets of -out files given as arguments: two directories, or files from two directories")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dmpbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o := runOpts{seed: uint64(*seed), seconds: *seconds, smoke: *smoke}
	if *smoke {
		o.seconds = 0 // the fewest rounds: one, or two when traced
	}
	switch *trace {
	case "0", "":
	case "1":
		o.traceDir = defaultTraceDir
	default:
		o.traceDir = *trace
	}

	var rec Record
	var err error
	if *name != "" {
		rec, err = runOne(*name, o, stdout)
	} else {
		rec, err = runAll(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dmpbench: %v\n", err)
		return 2
	}
	rec.Seed = *seed
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintf(stderr, "dmpbench: %v\n", err)
			return 2
		}
	}
	return exitCode(rec)
}

// exitCode is 1 when any workload's outputs failed a check, else 0.
func exitCode(rec Record) int {
	for _, oc := range rec.Workloads {
		if !oc.Correct || oc.Failed > 0 {
			return 1
		}
	}
	return 0
}

// runOne runs a single workload in this process and prints its result.
func runOne(name string, o runOpts, stdout io.Writer) (Record, error) {
	w, ok := workloadByName(name)
	if !ok {
		return Record{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if o.traceDir != "" {
		o.traceDir = filepath.Join(o.traceDir, name)
	}
	oc, err := runWorkload(w, o)
	if err != nil {
		return Record{}, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if o.traceDir != "" {
		defs = perLayer
	}
	for _, d := range defs {
		m := oc.Metrics[d.Name]
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, d.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	fmt.Fprintf(stdout, "%s ops %d failed %d\n", name, oc.Attempted, oc.Failed)
	line, err := json.Marshal(oc)
	if err != nil {
		return Record{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return Record{Workloads: map[string]Outcome{name: oc}}, nil
}

// runAll runs every workload, each in a child process: untraced, and
// then traced when o asks for a trace. The child's metric lines pass
// through; its JSON result is merged into the returned record.
func runAll(o runOpts, stdout, stderr io.Writer) (Record, error) {
	rec := Record{Workloads: map[string]Outcome{}}
	traces := []string{"0"}
	if o.traceDir != "" {
		traces = append(traces, o.traceDir)
	}
	for _, w := range workloads {
		merged := Outcome{Correct: true, Metrics: map[string]Metric{}}
		for _, tr := range traces {
			oc, err := runChild(w.name, o, tr, stdout, stderr)
			if err != nil {
				return Record{}, err
			}
			merged.Correct = merged.Correct && oc.Correct
			merged.Attempted += oc.Attempted
			merged.Failed += oc.Failed
			for k, v := range oc.Metrics {
				merged.Metrics[k] = v
			}
		}
		rec.Workloads[w.name] = merged
	}
	return rec, nil
}

// runChild runs one workload in a child process and returns the result
// it printed.
func runChild(name string, o runOpts, trace string, stdout, stderr io.Writer) (Outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return Outcome{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(int64(o.seed), 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	io.WriteString(stdout, text[:cut+1])
	var oc Outcome
	if err := json.Unmarshal([]byte(text[cut+1:]), &oc); err != nil {
		return Outcome{}, fmt.Errorf("%s: no result: %v", name, errors.Join(runErr, err))
	}
	return oc, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
