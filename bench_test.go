// Package bench regenerates every table and figure of the paper as Go
// benchmarks: one Benchmark per experiment. Each benchmark runs its
// experiment on a representative five-benchmark subset at scale 1 (so a
// full `go test -bench=. -benchtime=1x` stays tractable) and logs the
// resulting table; key series values are also exported as benchmark
// metrics. The full fifteen-benchmark tables are produced by
// `go run ./cmd/dmpexp -scale 3 all`.
//
// Component micro-benchmarks (predictor, caches, emulator, machine) and
// ablation benchmarks for the design choices called out in DESIGN.md
// follow the figure benchmarks.
package bench

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/exp"
	"dmp/internal/obs"
	"dmp/internal/profile"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// benchSubset is the representative subset used by the figure benchmarks:
// three diverge-heavy, one hammock-dominated, one predictable.
var benchSubset = []string{"mcf", "parser", "twolf", "vpr", "perlbmk"}

func benchOpts() exp.Options {
	return exp.Options{Scale: 1, Benchmarks: benchSubset}
}

// runFigure runs one experiment generator b.N times, logging the table
// once and reporting the last-row (mean) columns as metrics.
func runFigure(b *testing.B, id string, metricCols map[string]int) {
	gen := exp.All[id]
	if gen == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var t *exp.Table
	for i := 0; i < b.N; i++ {
		// Drop cached simulation results (keep the memoized annotated
		// programs) so every iteration measures this experiment's own
		// simulations, not hits on results another benchmark ran first.
		exp.ResetResults()
		var err error
		t, err = gen(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + t.String())
	if len(t.Rows) == 0 {
		return
	}
	last := t.Rows[len(t.Rows)-1]
	for name, col := range metricCols {
		if col < len(last) {
			if v, err := strconv.ParseFloat(last[col], 64); err == nil {
				b.ReportMetric(v, name)
			}
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable2(b *testing.B)  { runFigure(b, "table2", nil) }
func BenchmarkTable3(b *testing.B)  { runFigure(b, "table3", nil) }
func BenchmarkFigure1(b *testing.B) { runFigure(b, "fig1", map[string]int{"wrong%": 3}) }
func BenchmarkFigure6(b *testing.B) { runFigure(b, "fig6", nil) }

func BenchmarkFigure7(b *testing.B) {
	runFigure(b, "fig7", map[string]int{"dhp%": 1, "dmp-jrs%": 3, "dmp-perf%": 4, "perfect%": 5})
}

func BenchmarkFigure8(b *testing.B) { runFigure(b, "fig8", nil) }
func BenchmarkFigure9(b *testing.B) {
	runFigure(b, "fig9", map[string]int{"basic%": 1, "enhanced%": 4})
}
func BenchmarkFigure10(b *testing.B) { runFigure(b, "fig10", nil) }
func BenchmarkFigure11(b *testing.B) { runFigure(b, "fig11", map[string]int{"flushred%": 3}) }
func BenchmarkFigure12(b *testing.B) { runFigure(b, "fig12", nil) }
func BenchmarkFigure13a(b *testing.B) {
	runFigure(b, "fig13a", map[string]int{"dmp-gain%": 4})
}
func BenchmarkFigure13b(b *testing.B) {
	runFigure(b, "fig13b", map[string]int{"dmp-gain%": 4})
}
func BenchmarkDualPath(b *testing.B) {
	runFigure(b, "dualpath", map[string]int{"dual%": 1, "dhp%": 2, "dmp%": 3})
}

// BenchmarkAllExperiments tracks the full evaluation suite the way
// cmd/dmpexp runs it: every experiment generated concurrently against a
// cold process-wide result cache, where a run answers every request of
// its family whose extra predication knobs it never exercised
// (core.Evidence). sims/run counts the simulations actually executed;
// reused/run the requests answered without one of their own.
// This is the wall-clock number the result-cache + global-scheduler work
// optimizes (BENCH_expcache.json).
func BenchmarkAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Reset()
		ids := exp.IDs()
		errs := make([]error, len(ids))
		var wg sync.WaitGroup
		for j, id := range ids {
			wg.Add(1)
			go func(j int, id string) {
				defer wg.Done()
				_, errs[j] = exp.All[id](benchOpts())
			}(j, id)
		}
		wg.Wait()
		for j, err := range errs {
			if err != nil {
				b.Fatalf("%s: %v", ids[j], err)
			}
		}
	}
	hits, misses := exp.SimCounts()
	b.ReportMetric(float64(misses), "sims/run")
	b.ReportMetric(float64(hits), "reused/run")
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// runDMPWith runs parser under enhanced DMP after a profiling pass with
// custom options, reporting the IPC gain over the baseline.
func runDMPWith(b *testing.B, popts profile.Options, tweak func(*core.Config)) {
	w, err := workload.ByName("parser")
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		train := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: 1})
		if _, err := profile.Run(train, popts); err != nil {
			b.Fatal(err)
		}
		ref := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: 1})
		for pc, d := range train.Diverge {
			ref.MarkDiverge(pc, d)
		}
		bc := core.DefaultConfig()
		bc.CheckRetirement = false
		mb, _ := core.New(ref, bc)
		sb, err := mb.Run()
		if err != nil {
			b.Fatal(err)
		}
		dc := core.EnhancedDMPConfig()
		dc.CheckRetirement = false
		if tweak != nil {
			tweak(&dc)
		}
		md, _ := core.New(ref, dc)
		sd, err := md.Run()
		if err != nil {
			b.Fatal(err)
		}
		gain = 100 * (sd.IPC()/sb.IPC() - 1)
	}
	b.ReportMetric(gain, "gain%")
}

// BenchmarkAblationFrequentPathCFM is the paper's CFM selection
// (frequently executed paths).
func BenchmarkAblationFrequentPathCFM(b *testing.B) {
	runDMPWith(b, profile.DefaultOptions(), nil)
}

// BenchmarkAblationPostDomCFM replaces the CFM heuristic with the
// immediate post-dominator — the conventional reconvergence point DMP
// argues against.
func BenchmarkAblationPostDomCFM(b *testing.B) {
	o := profile.DefaultOptions()
	o.UsePostDom = true
	runDMPWith(b, o, nil)
}

// BenchmarkAblationSelectPorts1 limits select-uop insertion to one per
// cycle (RAT port pressure).
func BenchmarkAblationSelectPorts1(b *testing.B) {
	runDMPWith(b, profile.DefaultOptions(), func(c *core.Config) {
		c.SelectUopsPerCycle = 1
	})
}

// BenchmarkAblationLoopDiverge enables diverge loop branches (Section
// 2.7.4 future work), which the profile pass always marks.
func BenchmarkAblationLoopDiverge(b *testing.B) {
	runDMPWith(b, profile.DefaultOptions(), func(c *core.Config) {
		c.EnableLoopDiverge = true
	})
}

// --- component micro-benchmarks ---

// benchPredictor predicts and trains p on a stream of 1024 branch PCs
// whose outcomes come from a fixed-seed xorshift generator, pushing each
// outcome into the history as retirement would. Random outcomes make a
// random history, so the per-op cost includes whatever the host pays for
// unpredictable data-dependent branches in the predictor.
func benchPredictor(b *testing.B, p bpred.DirPredictor) {
	var h bpred.GHR
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc, taken := uint64(i)&1023, x&1 == 1
		p.Predict(pc, h)
		p.Update(pc, h, taken)
		h = h.Push(taken)
	}
}

func BenchmarkPerceptronPredict(b *testing.B) {
	benchPredictor(b, bpred.NewPerceptron(bpred.DefaultPerceptronConfig()))
}

func BenchmarkHybridPredict(b *testing.B) { benchPredictor(b, bpred.NewHybrid(14, 12)) }

// BenchmarkWarmTo measures functional warming, the inner loop of sampled
// simulation: one op is a 10 000-instruction WarmTo window of enhanced
// DMP warming over mcf. When the program halts a fresh warmer starts,
// outside the timer. It reports host ns per warmed instruction and, in
// steady state, 0 allocs/op.
func BenchmarkWarmTo(b *testing.B) {
	const window = 10_000
	p, err := exp.Annotated("mcf", 1)
	if err != nil {
		b.Fatal(err)
	}
	var w *core.Warmer
	var insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w == nil || w.Halted() {
			b.StopTimer()
			if w, err = core.NewWarmer(p, core.EnhancedDMPConfig()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		from := w.Count()
		if err := w.WarmTo(from + window); err != nil {
			b.Fatal(err)
		}
		insts += w.Count() - from
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

func BenchmarkCacheHierarchy(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	for i := 0; i < b.N; i++ {
		h.DataLatency(uint64(i*64) & 0xFFFFF)
	}
}

func BenchmarkEmulator(b *testing.B) {
	w, _ := workload.ByName("bzip2")
	p := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: 1})
	b.ResetTimer()
	ran := uint64(0)
	for i := 0; i < b.N; i++ {
		e := emu.New(p)
		n, err := e.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		ran += n
	}
	b.ReportMetric(float64(ran)/float64(b.N), "insts/run")
}

// BenchmarkMachineBaseline measures raw simulator speed (simulated
// instructions per wall second appear as the insts/run metric over ns/op).
func BenchmarkMachineBaseline(b *testing.B) {
	w, _ := workload.ByName("twolf")
	p := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.CheckRetirement = false
		m, err := core.New(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMachineEnhancedDMP(b *testing.B) {
	p, err := exp.Annotated("twolf", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.EnhancedDMPConfig()
		cfg.CheckRetirement = false
		m, err := core.New(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnotatedCached measures a cache hit on the memoized
// annotated-program path that every experiment configuration shares; it
// should be ~free next to BenchmarkProfilePass, which is the work a miss
// pays once per (benchmark, scale).
func BenchmarkAnnotatedCached(b *testing.B) {
	if _, err := exp.Annotated("parser", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Annotated("parser", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfilePass(b *testing.B) {
	w, _ := workload.ByName("parser")
	for i := 0; i < b.N; i++ {
		p := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: 1})
		if _, err := profile.Run(p, profile.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserverOverhead pins the cost of the internal/obs probe
// layer on the hottest configuration (enhanced DMP, every hook site
// live). "disabled" is the shipping default — probe nil, every hook
// site a single pointer compare — and must stay within noise (<2%,
// recorded in BENCH_obs.json) of the tree before the probe layer
// existed. "attached" runs every sink at once (pipetrace, episode
// timeline, interval sampler, and the progress probe feeding a
// progress renderer) into io.Discard and bounds the price of turning
// observability on.
func BenchmarkObserverOverhead(b *testing.B) {
	p, err := exp.Annotated("mcf", 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, probe func() *core.Probe) {
		for i := 0; i < b.N; i++ {
			cfg := core.EnhancedDMPConfig()
			cfg.CheckRetirement = false
			m, err := core.New(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if probe != nil {
				m.SetProbe(probe())
			}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("attached", func(b *testing.B) {
		run(b, func() *core.Probe {
			return obs.Tee(
				obs.NewPipetrace(io.Discard, obs.FormatText).Probe(),
				obs.NewEpisodeLog(io.Discard).Probe(),
				obs.NewIntervalSampler(io.Discard, 10000).Probe(),
				progressProbe(),
			)
		})
	})
}

// progressProbe is dmpsim's progress path: obs.ProgressProbe on a
// subscriber-only feed rendered by telemetry.Progress.
func progressProbe() *core.Probe {
	feed := telemetry.NewFeed(nil)
	feed.Subscribe(telemetry.NewProgress(io.Discard, false).Event)
	return obs.ProgressProbe(feed)
}

// BenchmarkTelemetryOverhead pins the cost of the host-side telemetry
// layer (internal/telemetry) on its instrumented hot paths: the result
// cache + worker pool in internal/exp and the sampled-simulation
// pipeline in internal/sample. "disabled" is the shipping default — no
// Set enabled, the metric atomics still tick, every span/feed site is
// a nil check — and must stay within noise (<2%, recorded in
// BENCH_telemetry.json) of the tree before telemetry existed.
// "attached" enables a full Set with spans and feed events into
// io.Discard and bounds the price of turning telemetry on. The
// workload is the sampling experiment: exact golden runs through the
// result cache plus one sampled pipeline per benchmark, the densest
// emission path (per-interval spans from the consumer loop).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, attach bool) {
		for i := 0; i < b.N; i++ {
			exp.ResetResults()
			o := benchOpts()
			var set *telemetry.Set
			if attach {
				set = telemetry.New(telemetry.Options{SpanW: io.Discard, EventW: io.Discard})
				telemetry.Enable(set)
				o.Span = set.Tracer().Begin("bench", "exp")
			}
			if _, err := exp.Sampling(o); err != nil {
				b.Fatal(err)
			}
			if attach {
				o.Span.End()
				if _, err := set.Close(); err != nil {
					b.Fatal(err)
				}
				telemetry.Enable(nil)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("attached", func(b *testing.B) { run(b, true) })
}

// BenchmarkMergePredictorOverhead pins the cost of feeding the
// merge-point predictor (internal/merge) from retirement. Both legs run
// enhanced DMP on mcf with "never-low" confidence, so neither enters an
// episode and the runs are behaviorally identical: "annotated" has no
// predictor at all, "hybrid" observes every retired instruction and
// trains on every mispredicted branch. The difference is the pure
// lookup+train overhead, bounded <3% in BENCH_merge.json.
func BenchmarkMergePredictorOverhead(b *testing.B) {
	p, err := exp.Annotated("mcf", 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, src string) {
		for i := 0; i < b.N; i++ {
			cfg := core.EnhancedDMPConfig()
			cfg.CheckRetirement = false
			cfg.ConfidenceName = "never-low"
			cfg.CFMSource = src
			m, err := core.New(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("annotated", func(b *testing.B) { run(b, "annotated") })
	b.Run("hybrid", func(b *testing.B) { run(b, "hybrid") })
}

// BenchmarkAblationAlternateGHR uses the paper's footnote-7 design choice
// (keep the alternate path's global history at exit) instead of this
// implementation's default (restore the predicted path's history).
func BenchmarkAblationAlternateGHR(b *testing.B) {
	runDMPWith(b, profile.DefaultOptions(), func(c *core.Config) {
		c.KeepAlternateGHR = true
	})
}
