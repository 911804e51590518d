// Command dmpsim runs one benchmark (or an assembly file) on one machine
// configuration and prints the run statistics.
//
// Usage:
//
//	dmpsim -bench mcf -mode dmp -scale 3
//	dmpsim -asm prog.s -mode baseline
//	dmpsim -bench parser -mode dmp -conf perfect -mcfm -eexit -mdb
//	dmpsim -bench mcf -mode enhanced -sample -sample-manifest mcf.json
//
// Modes: baseline, perfect, dmp, dhp, dualpath, enhanced (= dmp with all
// Section 2.7 enhancements).
//
// -cfm-source selects where DMP finds merge points: annotated (compiler
// annotations, the default), dynamic (the runtime merge-point predictor
// of internal/merge — no annotations needed), or hybrid (annotation
// first, predictor for unannotated branches). -merge-table sizes the
// predictor's reconvergence table; -merge-stats appends a predictor
// summary line to the output.
//
// Sampled simulation (see internal/sample): -sample switches the run to
// SMARTS-style sampling — an exactly measured cold-start prefix, one
// continuous functional-warming pass, and short detailed intervals whose
// measurements extrapolate the full run with a 95% confidence interval.
// -sample-period/-sample-interval/-sample-warmup override the default
// parameters (and require -sample); -sample-warm-mode caches restricts the
// continuous warming pass to the cache hierarchy (predictors retrain per
// interval via -sample-warmup — cheaper warming, pair it with a nonzero
// warmup). These four are dmpexp's flags too, checked by the same
// core.SamplePoint.Validate before anything runs. -sample-manifest
// records the per-interval accounting as JSON for dmpobs -manifest to
// validate. The summary includes a host time breakdown
// (prefix/warming/snapshot/detailed/extrapolate).
//
// Observability (see internal/obs): -pipetrace writes a per-uop
// pipeline trace (Chrome trace_event JSON for Perfetto when the file
// ends in .json, text otherwise), -events writes the dynamic
// predication episode timeline as JSONL (summarize with dmpobs),
// -interval writes an interval Stats CSV every N cycles. Unless -q, a
// progress line (telemetry.Progress over obs.ProgressProbe) reports
// cycle, retired instructions, sim-IPC and host rates on stderr every
// few seconds, then a one-line summary.
// -cpuprofile/-memprofile/-trace profile the simulator itself; every
// exit, failed ones included, finishes the profiles and telemetry.
//
// -telemetry attaches the host-side telemetry layer (internal/telemetry);
// -telemetry-out DIR (implies -telemetry) records spans.json (host spans:
// run, and for -sample the prefix/warm/extrapolate stages plus every
// snapshot and interval job — loadable into one Perfetto timeline with a
// -pipetrace), events.jsonl and metrics.json/.prom. Validate with dmpobs
// -telemetry DIR. Attached telemetry never changes the printed Stats.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/exp"
	"dmp/internal/obs"
	"dmp/internal/prog"
	"dmp/internal/sample"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "dmpsim: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command. Every return after the observability attach
// passes its deferred Finish, so a failed run still leaves complete
// profiles and telemetry artifacts.
func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		bench    = fs.String("bench", "", "benchmark name (see -list)")
		asm      = fs.String("asm", "", "assembly file to run instead of a benchmark")
		mode     = fs.String("mode", "baseline", "baseline|perfect|dmp|dhp|dualpath|enhanced")
		conf     = fs.String("conf", "jrs", "confidence estimator: jrs|perfect|always-low|never-low")
		predName = fs.String("pred", "perceptron", "predictor: perceptron|gshare|bimodal|hybrid")
		scale    = fs.Int("scale", 3, "workload scale factor")
		rob      = fs.Int("rob", 512, "reorder buffer entries")
		depth    = fs.Int("depth", 30, "pipeline depth")
		maxInsts = fs.Uint64("max-insts", 0, "stop after N retired instructions (0 = run to halt)")
		mcfm     = fs.Bool("mcfm", false, "enable multiple CFM points (2.7.1)")
		eexit    = fs.Bool("eexit", false, "enable early exit (2.7.2)")
		mdb      = fs.Bool("mdb", false, "enable multiple diverge branches (2.7.3)")
		loops    = fs.Bool("loops", false, "enable diverge loop branches (2.7.4)")
		cfmSrc   = fs.String("cfm-source", "annotated", "CFM point source: annotated|dynamic|hybrid (dynamic/hybrid use the runtime merge-point predictor)")
		mergeTbl = fs.Int("merge-table", 0, "merge-point predictor table entries (0 = default; needs -cfm-source dynamic|hybrid)")
		mergeSt  = fs.Bool("merge-stats", false, "print a merge-point predictor summary line")

		doSample    = fs.Bool("sample", false, "sampled simulation: fast-forward + warmed detailed intervals instead of an exact run")
		samplePt    = exp.SampleFlags(fs)
		sampleManif = fs.String("sample-manifest", "", "write the sampled run's interval manifest (JSON) to this file (needs -sample)")

		list = fs.Bool("list", false, "list benchmarks and exit")

		pipetrace   = fs.String("pipetrace", "", "write a per-uop pipetrace to this file (.json = Chrome trace for Perfetto, else text)")
		events      = fs.String("events", "", "write the dynamic-predication episode timeline (JSONL) to this file")
		interval    = fs.Uint64("interval", 0, "sample Stats deltas every N cycles into an interval CSV")
		intervalOut = fs.String("interval-out", "", "interval CSV destination (default stdout)")
		quiet       = fs.Bool("q", false, "suppress the stderr progress line")
	)
	var obsFlags telemetry.Flags
	obsFlags.Register(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-8s %s\n", w.Name, w.Desc)
		}
		return nil
	}

	cfg, err := core.ModeConfig(*mode)
	if err != nil {
		return fmt.Errorf("-mode: %w", err)
	}
	cfg.ConfidenceName = *conf
	cfg.PredictorName = *predName
	cfg.ROBSize = *rob
	cfg.PipelineDepth = *depth
	cfg.MaxInsts = *maxInsts
	if *mcfm {
		cfg.MultipleCFM = true
	}
	if *eexit {
		cfg.EarlyExit = true
	}
	if *mdb {
		cfg.MultipleDiverge = true
	}
	cfg.EnableLoopDiverge = *loops
	if err := setCFMSource(&cfg, *cfmSrc, *mergeTbl); err != nil {
		return err
	}
	if !*doSample && (*samplePt != (core.SamplePoint{}) || *sampleManif != "") {
		return errors.New("-sample-period, -sample-interval, -sample-warmup, -sample-warm-mode and -sample-manifest need -sample")
	}
	if err := samplePt.Validate(); err != nil {
		return err
	}
	cfg.SampleMode = *doSample
	cfg.SamplePoint = *samplePt
	if *doSample && (*pipetrace != "" || *events != "" || *interval != 0) {
		return errors.New("-pipetrace/-events/-interval trace exact runs; they are not available with -sample")
	}

	if *bench == "" && *asm == "" {
		return errors.New("need -bench or -asm (try -list)")
	}
	p, err := exp.Load(*bench, *asm, *scale, cfg.Mode == core.ModeDMP || cfg.Mode == core.ModeDHP)
	if err != nil {
		return err
	}

	// One root span for the run; a sampled run hangs its stage spans and
	// interval jobs under it.
	o, err := obsFlags.Start("dmpsim", "sim", fmt.Sprintf("%s %s scale %d", benchName(*bench, *asm), *mode, *scale))
	if err != nil {
		return err
	}
	finish := func() {
		if err := o.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "dmpsim: %v\n", err)
		}
	}
	defer finish()

	if *doSample {
		// The stage histograms are the run's host-time record; the
		// registry delta across the run is this run's share of them.
		before := telemetry.DefaultRegistry().Snapshot()
		t0 := time.Now()
		r, err := sample.Run(p, cfg, sample.Options{Span: o.Root})
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		stages := telemetry.DefaultRegistry().Snapshot().Delta(before)
		if *sampleManif != "" {
			f, err := os.Create(*sampleManif)
			if err != nil {
				return err
			}
			if err := r.WriteManifest(f); err != nil {
				f.Close()
				return fmt.Errorf("manifest: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("manifest: %w", err)
			}
		}
		printSampled(r, stages, wall)
		printStats(r.Extrapolated, wall)
		if *mergeSt {
			fmt.Print(mergeStatsLine(r.Extrapolated))
		}
		printHostThroughput(p, cfg.MaxInsts, perSec(float64(r.TotalInsts), wall))
		return nil
	}

	var probes []*core.Probe
	var sinks []interface{ Close() error }
	if *pipetrace != "" {
		f, err := os.Create(*pipetrace)
		if err != nil {
			return err
		}
		format := obs.FormatText
		if strings.HasSuffix(*pipetrace, ".json") {
			format = obs.FormatChrome
		}
		tr := obs.NewPipetrace(f, format)
		probes = append(probes, tr.Probe())
		sinks = append(sinks, tr, f)
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		el := obs.NewEpisodeLog(f)
		probes = append(probes, el.Probe())
		sinks = append(sinks, el, f)
	}
	if *interval != 0 {
		w := os.Stdout
		if *intervalOut != "" {
			if w, err = os.Create(*intervalOut); err != nil {
				return err
			}
		}
		iv := obs.NewIntervalSampler(w, *interval)
		probes = append(probes, iv.Probe())
		sinks = append(sinks, iv)
		if w != os.Stdout {
			sinks = append(sinks, w)
		}
	}
	if !*quiet {
		// The progress line renders the run's own feed when telemetry is
		// attached (so events.jsonl records the progress too), else a
		// subscriber-only one.
		feed := o.Set.Feed()
		if feed == nil {
			feed = telemetry.NewFeed(nil)
		}
		pr := telemetry.NewProgress(os.Stderr, telemetry.IsTerminal(os.Stderr))
		pr.Every = 5 * time.Second
		feed.Subscribe(pr.Event)
		defer pr.Finish()
		probes = append(probes, obs.ProgressProbe(feed))
	}

	m, err := core.New(p, cfg)
	if err != nil {
		return err
	}
	if len(probes) > 0 {
		m.SetProbe(obs.Tee(probes...))
	}
	runSpan := o.Root.Child("run", "sim")
	t0 := time.Now()
	st, runErr := m.Run()
	wall := time.Since(t0).Seconds()
	runSpan.End()
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dmpsim: closing sink: %v\n", err)
		}
	}
	finish() // before the emu-only timing below, which is not the run
	if runErr != nil {
		return fmt.Errorf("%v\npartial stats: %v", runErr, st)
	}
	printStats(st, wall)
	if *mergeSt {
		fmt.Print(mergeStatsLine(st))
	}
	if cfg.Mode == core.ModeDMP || cfg.Mode == core.ModeDHP {
		// The knobs whose flip could have changed a decision of this run
		// (core.Evidence): requests that differ only in the others share it.
		ev := m.Evidence()
		fmt.Printf("knobs exercised   %12s %s\n", "", ev.Describe())
	}
	printHostThroughput(p, cfg.MaxInsts, perSec(float64(st.RetiredInsts), wall))
	return nil
}

// benchName names the workload for telemetry: the benchmark if one was
// given, else the assembly file.
func benchName(bench, asm string) string {
	if bench != "" {
		return bench
	}
	return asm
}

// printSampled renders the sampling-specific summary: what was measured,
// what was extrapolated, how tight the estimate is, and where the host
// time went. The breakdown divides each dmp_sample_<stage>_seconds sum in
// stages (the run's metrics delta) by wall, the host seconds sample.Run
// took; it is wall-clock dependent, everything else is deterministic.
func printSampled(r *sample.Result, stages telemetry.Snapshot, wall float64) {
	fmt.Printf("sampled run       %12d insts: prefix %d exact, %d intervals of ~%d (detailed %.1f%%), period %d, warmup %d, ramp %d\n",
		r.TotalInsts, r.PrefixRetired, r.K, r.IntervalLen,
		100*float64(r.DetailedRetired)/float64(r.TotalInsts), r.Period, r.Warmup, r.Ramp)
	fmt.Printf("IPC estimate      %12.3f ± %.3f (95%% CI over %d intervals; interval mean %.3f)\n",
		r.IPC, r.CI95, r.K, r.IPCMean)
	sums := map[string]float64{}
	for _, h := range stages.Histograms {
		sums[h.Name] = h.Sum
	}
	stage := func(name string) float64 { return 100 * perSec(sums["dmp_sample_"+name+"_seconds"], wall) }
	fmt.Printf("time breakdown    %12s prefix %.0f%%, warming %.0f%%, snapshot %.0f%%, detailed %.0f%%, extrapolate %.0f%% of %.3fs wall\n",
		"", stage("prefix"), stage("warm"), stage("snapshot"), stage("detailed"), stage("extrapolate"), wall)
}

// perSec is a safe rate: 0 when secs is 0.
func perSec(n, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return n / secs
}

// printHostThroughput reports how fast the simulation ran relative to the
// pure functional emulator over the same program — the fast-forward
// ceiling any sampled run approaches as its detailed fraction shrinks.
// Both rates count architectural instructions per host second.
func printHostThroughput(p *prog.Program, maxInsts uint64, simRate float64) {
	emuRate, err := emuOnlyRate(p, maxInsts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpsim: emu-only timing: %v\n", err)
		return
	}
	slow := "n/a"
	if simRate > 0 && emuRate > 0 {
		slow = fmt.Sprintf("%.1fx", emuRate/simRate)
	}
	fmt.Printf("host throughput   %12.0f simulated insts/s vs %.0f emu-only (slowdown %s)\n",
		simRate, emuRate, slow)
}

// emuOnlyRate times one pure functional emulation of p and returns
// architectural instructions per host second.
func emuOnlyRate(p *prog.Program, maxInsts uint64) (float64, error) {
	e := emu.New(p)
	t0 := time.Now()
	if _, err := e.Run(maxInsts); err != nil {
		return 0, err
	}
	el := time.Since(t0).Seconds()
	if el <= 0 {
		return 0, nil
	}
	return float64(e.Count) / el, nil
}

// setCFMSource validates and applies the -cfm-source / -merge-table
// flags. Split out of main so the flag-rejection contract is testable.
func setCFMSource(cfg *core.Config, src string, table int) error {
	switch src {
	case "annotated", "dynamic", "hybrid":
	default:
		return fmt.Errorf("invalid -cfm-source %q (want annotated, dynamic or hybrid)", src)
	}
	if table < 0 {
		return fmt.Errorf("invalid -merge-table %d (must be non-negative)", table)
	}
	if table > 0 && src == "annotated" {
		return fmt.Errorf("-merge-table needs -cfm-source dynamic or hybrid")
	}
	cfg.CFMSource = src
	cfg.MergeTableSize = table
	return nil
}

// mergeStatsLine renders the -merge-stats summary.
func mergeStatsLine(s *core.Stats) string {
	return fmt.Sprintf("merge predictor   %12d hits, %d misses, %d trainings, %d evictions, %d learned-CFM episodes, %d merge mispredicts\n",
		s.MergeHits, s.MergeMisses, s.MergeTrainings, s.MergeEvictions,
		s.DynCFMEpisodes, s.MergeMispredicts)
}

// printStats renders s; wall, the run's host seconds, feeds the throughput line.
func printStats(s *core.Stats, wall float64) {
	fmt.Printf("cycles            %12d\n", s.Cycles)
	fmt.Printf("retired insts     %12d  (IPC %.3f)\n", s.RetiredInsts, s.IPC())
	fmt.Printf("branches          %12d  (%.2f%% mispredicted, %.2f MPKI)\n",
		s.RetiredBranches, 100*s.MispredictRate(), s.MPKI())
	fmt.Printf("pipeline flushes  %12d\n", s.Flushes)
	fmt.Printf("fetched insts     %12d  (%.1f%% wrong-path: %d ctrl-dep + %d ctrl-indep)\n",
		s.FetchedInsts, 100*s.WrongPathFrac(), s.FetchedWrongCD, s.FetchedWrongCI)
	fmt.Printf("executed          %12d  (+%d select-uops, +%d marker uops)\n",
		s.ExecutedInsts, s.ExecutedSelects, s.ExecutedMarkers)
	fmt.Printf("retired FALSE     %12d\n", s.RetiredFalse)
	if s.Episodes > 0 {
		fmt.Printf("dpred episodes    %12d  exits: c1=%d c2=%d c3=%d c4=%d c5=%d c6=%d squashed=%d\n",
			s.Episodes, s.ExitCases[1], s.ExitCases[2], s.ExitCases[3],
			s.ExitCases[4], s.ExitCases[5], s.ExitCases[6], s.ExitCases[0])
		fmt.Printf("conversions       %12d early-exit, %d multiple-diverge\n", s.EarlyExits, s.MDBConversions)
	}
	fmt.Printf("halted            %12v\n", s.HaltRetired)
	fmt.Printf("sim throughput    %12.0f cycles/s, %.0f retired uops/s (%.2fs wall, %d uops created)\n",
		perSec(float64(s.Cycles), wall), perSec(float64(s.CommittedWork()), wall), wall, s.FetchedUops)
}
