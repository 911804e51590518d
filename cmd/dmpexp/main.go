// Command dmpexp regenerates the paper's tables and figures.
//
// Usage:
//
//	dmpexp -scale 3 all          # every experiment, in paper order
//	dmpexp fig7 fig9             # specific experiments
//	dmpexp -bench mcf,twolf fig8 # restrict the suite
//
// Experiment ids: table2 table3 fig1 fig6 fig7 fig8 fig9 fig10 fig11
// fig12 fig13a fig13b dualpath loopdiverge mergepred sampling (the
// authoritative list is exp.IDs(), which the usage error prints).
//
// The sampling experiment validates sampled simulation against exact
// golden runs. -sample-json writes its machine-readable report (per-bench
// IPC error, CI coverage, host speedup) to a file; -sample-gate N makes
// the process fail unless every benchmark's |IPC error| is at most N
// percent and its 95% confidence interval covers the exact IPC — the CI
// accuracy gate. -sample-period/-sample-interval/-sample-warmup/
// -sample-warm-mode override the sampling parameters; with none of them
// set, each benchmark runs at its own validated operating point (see
// internal/exp benchPoints). All of them require the sampling experiment
// to be among the requested ids, and a point dmpsim -sample would reject
// (an interval, plus its warmup, that does not fit inside the period; an
// unknown warm mode) is a usage error before anything runs.
//
// All requested experiments generate concurrently: the process-wide
// result cache in internal/exp simulates each unique (benchmark, config,
// scale, check) pair exactly once, and a global worker pool (-parallel,
// default NumCPU) bounds the simulations in flight across every
// experiment. Tables print to stdout in the requested order regardless of
// completion order; per-experiment timing and the cache hit/miss summary
// go to stderr so stdout stays byte-stable for golden diffs.
//
// -remote URL sends the request to a dmpserve daemon instead of
// simulating locally: tables stream back byte-identical to a local run
// (golden diffs hold either way), and the stderr summary reports the
// daemon's result-cache delta — including store hits, simulations the
// daemon's persistent store answered from disk. Local-only flags
// (-sample-*, -telemetry*) are rejected with -remote. Either way the
// experiments run through serve.RunExperiments, locally or in the daemon.
//
// Annotation legality is dmplint's job (dmplint -werror all, with and
// without -loops), which checks the same programs dmpexp simulates.
//
// -telemetry attaches the host-side telemetry layer (internal/telemetry):
// a live single-line progress renderer on stderr (cache hits/misses,
// experiments completed) replaces the per-experiment timing lines, and
// scheduler/result-cache/sampling metrics are collected process-wide.
// -telemetry-out DIR (implies -telemetry) additionally records the
// artifacts: spans.json (Chrome trace of suite → experiment → simulation
// → sample-pipeline stages, Perfetto-loadable), events.jsonl (the
// structured progress feed), and metrics.json/metrics.prom (final metric
// snapshot). Validate and summarize with dmpobs -telemetry DIR. Attached
// telemetry never perturbs results — stdout stays golden-identical.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/serve"
	"dmp/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command; it returns the process exit status. Usage
// errors, a bad sampling point included, return 2 before anything runs.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		scale  = fs.Int("scale", 3, "workload scale factor")
		bench  = fs.String("bench", "", "comma-separated benchmark subset (default: all 15)")
		par    = fs.Int("parallel", 0, "simulation worker cap, shared by all experiments (default NumCPU)")
		remote = fs.String("remote", "", "run on a dmpserve daemon at this base URL instead of locally")

		sampleJSON = fs.String("sample-json", "", "write the sampling experiment's report (JSON) to this file")
		sampleGate = fs.Float64("sample-gate", 0, "fail unless every sampled benchmark has |IPC err%| <= this and CI coverage (0 = off)")
		samplePt   = exp.SampleFlags(fs)
	)
	var obsFlags telemetry.Flags
	obsFlags.Register(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	opts := exp.DefaultOptions()
	opts.Scale = *scale
	opts.Parallel = *par
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	opts.Sample = *samplePt

	// Usage errors exit before anything starts.
	usage := func(msg string) int {
		fmt.Fprintf(os.Stderr, "dmpexp: %s\n", msg)
		return 2
	}
	ids, err := exp.Resolve(fs.Args())
	if err != nil {
		return usage(err.Error())
	}
	if err := samplePt.Validate(); err != nil {
		return usage(err.Error())
	}
	// Everything past the remote check runs simulations (or inspects
	// local telemetry) on this host; the remote path delegates all of it
	// to the daemon.
	sampleFlags := *sampleJSON != "" || *sampleGate != 0 || opts.Sample != (core.SamplePoint{})
	if *remote != "" && (sampleFlags || obsFlags.On || obsFlags.Out != "") {
		return usage("-sample-* and -telemetry* are local-only; drop them with -remote")
	}
	wantSampling := false
	for _, id := range ids {
		wantSampling = wantSampling || id == "sampling"
	}
	if !wantSampling && sampleFlags {
		return usage("-sample-* flags need the sampling experiment among the requested ids")
	}

	// The telemetry Set is process-global (Enable), so the result cache,
	// worker pool, sampling pipeline and differential harness all report
	// into it without plumbing. With it on, the structured feed (and its
	// live progress line) replaces the ad-hoc per-experiment stderr
	// timing lines; stdout is untouched either way.
	obsRun, err := obsFlags.Start("dmpexp", "exp", fmt.Sprintf("scale %d, %s", opts.Scale, strings.Join(ids, " ")))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
		return 1
	}
	// Every return below goes through this, so a failed run still
	// finishes its profiles and telemetry.
	exit := func(code int) int {
		if err := obsRun.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
		}
		return code
	}
	if *remote != "" {
		return exit(runRemote(*remote, ids, opts))
	}
	tel := obsRun.Set
	var progress *telemetry.Progress
	if tel != nil {
		progress = telemetry.NewProgress(os.Stderr, telemetry.IsTerminal(os.Stderr))
		tel.Feed().Subscribe(progress.Event)
	}

	// Tables stream in the requested order as each one (and everything
	// before it) is ready. A failing experiment does not abort the rest:
	// every table that succeeded still prints, and the joined errors
	// decide the exit status at the end.
	start := time.Now()
	o := opts
	o.Span = obsRun.Root
	var failed []error
	presented := 0
	serve.RunExperiments(ids, o, func(id string, t *exp.Table, err error, elapsed time.Duration) {
		presented++
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", id, err))
			fmt.Fprintf(os.Stderr, "dmpexp: %s: %v\n", id, err)
			return
		}
		fmt.Print(t.String())
		fmt.Println()
		if tel != nil {
			// The feed (and its progress line) carries what the ad-hoc
			// stderr timing line used to; a metrics delta per presented
			// experiment gives the event stream checkpoints dmpobs can sum.
			tel.Feed().Emit(telemetry.Event{Kind: "progress",
				N: uint64(presented), V: float64(len(ids)), Msg: id})
			tel.EmitMetrics()
		} else {
			fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", id, elapsed.Seconds())
		}
	})
	progress.Finish()
	hits, misses := exp.SimCounts()
	fmt.Fprintf(os.Stderr, "total %.1fs; result cache: %d simulations, %d reused\n",
		time.Since(start).Seconds(), misses, hits)
	// The machine-readable sampling report reads the runs the sampling
	// table already made (exact ones from the result cache, sampled ones
	// from exp's sampled-run memo): it simulates nothing, and it comes
	// after the summary so the printed counts are the tables' own.
	var sampleRep *exp.SampleReport
	if *sampleJSON != "" || *sampleGate != 0 {
		if _, sampleRep, err = exp.SamplingReport(opts); err != nil {
			fmt.Fprintf(os.Stderr, "dmpexp: sampling report: %v\n", err)
			failed = append(failed, err)
		}
	}
	if sampleRep != nil {
		if *sampleJSON != "" {
			if err := writeSampleJSON(*sampleJSON, sampleRep); err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: %v\n", err)
				failed = append(failed, err)
			}
		}
		if *sampleGate != 0 {
			if err := checkSampleGate(sampleRep, *sampleGate); err != nil {
				fmt.Fprintf(os.Stderr, "dmpexp: sample gate: %v\n", err)
				failed = append(failed, err)
			} else {
				fmt.Fprintf(os.Stderr, "dmpexp: sample gate: every benchmark within %.2f%% with CI coverage\n", *sampleGate)
			}
		}
	}
	if err := errors.Join(failed...); err != nil {
		return exit(1)
	}
	return exit(0)
}

// writeSampleJSON records the sampling report (BENCH_sample.json).
func writeSampleJSON(path string, rep *exp.SampleReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkSampleGate is the CI accuracy gate: every benchmark must land
// within gatePct of its exact IPC, its 95% confidence interval must cover
// the exact value, and it must have at least two measured intervals (one
// interval has no spread estimate, so coverage would be vacuous).
func checkSampleGate(rep *exp.SampleReport, gatePct float64) error {
	var bad []string
	for _, b := range rep.Benches {
		switch {
		case math.Abs(b.ErrPct) > gatePct:
			bad = append(bad, fmt.Sprintf("%s: |err| %.2f%% > %.2f%%", b.Bench, math.Abs(b.ErrPct), gatePct))
		case !b.Covered:
			bad = append(bad, fmt.Sprintf("%s: 95%% CI misses the exact IPC", b.Bench))
		case b.K < 2:
			bad = append(bad, fmt.Sprintf("%s: only %d measured interval(s)", b.Bench, b.K))
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}
