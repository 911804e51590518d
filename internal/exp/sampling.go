package exp

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"sync"

	"dmp/internal/core"
	"dmp/internal/sample"
	"dmp/internal/sched"
)

// benchPoints holds per-benchmark sampling operating points. The suite
// default (period 6000, interval 500, warmup 0, full warming) is a
// compromise; benchmarks whose phase structure aliases with it get their
// own point here, applied only when the caller sets no Options.Sample
// knob (an explicit point runs everywhere, so CI gates stay pinned to
// their spelled-out points).
//
// Chosen by sweeping period x interval x warm mode against exact golden
// runs at scale 3 and keeping, per benchmark, the fastest point whose
// signed error stayed within the suite budget with CI coverage intact:
//
//   - bzip2: the compress/expand phase alternation aliases with the
//     default 6000-instruction stratum — every window lands in the cheap
//     phase and the estimate reads 11% low. Stretching the period to
//     24000 with 750-instruction windows decorrelates window placement
//     from the phase pattern (+3.7% with coverage); shorter stretches
//     (9000, 18000) still alias on one side or the other.
//   - gzip / parser: the same aliasing, milder; 15000/750 is the longest
//     period that keeps them inside the budget (~-7% each). Both resist
//     caches-only warming — their mispredicting branches train slowly,
//     so discarding predictor warming biases the windows cold.
//   - crafty / vpr / mesa: phase-stable under long periods; 24000-30000
//     with 750-instruction windows holds the error under 3%.
//   - gcc / vortex / fma3d: mid-length programs; 12000-15000 periods
//     keep k >= 4 windows for a usable CI.
//   - eon / gap / twolf / ammp / mcf / perlbmk: their predictors train
//     fast but their caches do not, so caches-only continuous warming
//     plus a short per-interval predictor warmup (-w512/-w1024) buys the
//     cheaper warming rate without biasing the windows.
//
// Accuracy is the binding constraint (the gate is amean |err| and 15/15
// coverage, not any single row); longer periods and caches-only warming
// are the two throughput levers on a single-CPU host, where the streamed
// pipeline cannot overlap intervals.
var benchPoints = map[string]core.SamplePoint{
	"ammp":    {SamplePeriod: 18000, SampleInterval: 500, SampleWarmup: 1024, WarmMode: "caches"},
	"bzip2":   {SamplePeriod: 24000, SampleInterval: 750},
	"crafty":  {SamplePeriod: 24000, SampleInterval: 750},
	"eon":     {SamplePeriod: 30000, SampleInterval: 500, SampleWarmup: 512, WarmMode: "caches"},
	"fma3d":   {SamplePeriod: 12000, SampleInterval: 750},
	"gap":     {SamplePeriod: 24000, SampleInterval: 750, SampleWarmup: 512, WarmMode: "caches"},
	"gcc":     {SamplePeriod: 15000, SampleInterval: 500},
	"gzip":    {SamplePeriod: 15000, SampleInterval: 750},
	"mcf":     {SamplePeriod: 18000, SampleInterval: 750, SampleWarmup: 1024, WarmMode: "caches"},
	"mesa":    {SamplePeriod: 30000, SampleInterval: 750},
	"parser":  {SamplePeriod: 15000, SampleInterval: 750},
	"perlbmk": {SamplePeriod: 12000, SampleInterval: 500, SampleWarmup: 1024, WarmMode: "caches"},
	"twolf":   {SamplePeriod: 24000, SampleInterval: 500, SampleWarmup: 512, WarmMode: "caches"},
	"vortex":  {SamplePeriod: 15000, SampleInterval: 750},
	"vpr":     {SamplePeriod: 24000, SampleInterval: 750},
}

// tunedScale is the -scale the benchPoints periods were swept at. Above
// it the period stretches proportionally with program length so the
// window count k stays roughly constant (intervals and warmups describe
// window physics — warm-state representativeness — not program length,
// and carry over). Below it programs are too short for the long tuned
// periods to leave a usable k, so the suite default applies.
const tunedScale = 3

// pointFor resolves a benchmark's operating point: options override
// everything, then benchPoints (period rescaled to o.Scale), then the
// core defaults.
func pointFor(o Options, bench string) core.SamplePoint {
	if o.Sample != (core.SamplePoint{}) {
		return o.Sample.WithDefaults()
	}
	pt, ok := benchPoints[bench]
	if !ok || o.Scale < tunedScale {
		return core.SamplePoint{}.WithDefaults()
	}
	pt = pt.WithDefaults()
	if o.Scale > tunedScale {
		pt.SamplePeriod = pt.SamplePeriod * uint64(o.Scale) / tunedScale
	}
	return pt
}

// SampleFlags registers the four -sample-* operating-point flags on fs
// and returns the point they fill in. Every flag left at zero takes its
// default; check the point with Validate once fs is parsed.
func SampleFlags(fs *flag.FlagSet) *core.SamplePoint {
	pt := new(core.SamplePoint)
	fs.Uint64Var(&pt.SamplePeriod, "sample-period", 0, "instructions per sampling period (0 = default)")
	fs.Uint64Var(&pt.SampleInterval, "sample-interval", 0, "retired instructions measured per detailed interval (0 = default)")
	fs.Uint64Var(&pt.SampleWarmup, "sample-warmup", 0, "extra per-interval functional warmup instructions")
	fs.StringVar(&pt.WarmMode, "sample-warm-mode", "", "functional warming mode: full (default) or caches — caches-only warming retrains predictors per interval via -sample-warmup")
	return pt
}

// SampleBench is one benchmark's sampled-vs-exact validation record.
// The accuracy fields (IPC, error, CI) are deterministic; the throughput
// fields describe this process's wall clock and are excluded from the
// experiment table (they go to BENCH_sample.json).
type SampleBench struct {
	Bench      string `json:"bench"`
	TotalInsts uint64 `json:"total_insts"`
	// Period / Interval / Warmup / WarmMode are the operating point this
	// benchmark ran at (per-benchmark overrides make these vary).
	Period     uint64  `json:"period"`
	Interval   uint64  `json:"interval"`
	Warmup     uint64  `json:"warmup"`
	WarmMode   string  `json:"warm_mode"`
	ExactIPC   float64 `json:"exact_ipc"`
	SampledIPC float64 `json:"sampled_ipc"`
	// ErrPct is the signed sampled-vs-exact IPC error in percent.
	ErrPct float64 `json:"err_pct"`
	// IPCMean / CI95 are the per-interval mean and its 95% half-width;
	// Covered reports whether mean ± CI95 contains the exact IPC.
	IPCMean float64 `json:"ipc_mean"`
	CI95    float64 `json:"ci95"`
	Covered bool    `json:"covered"`
	K       int     `json:"k"`
	// Host-throughput comparison (wall-clock dependent).
	ExactWall         float64 `json:"exact_wall_s"`
	SampleWall        float64 `json:"sample_wall_s"`
	ExactInstsPerSec  float64 `json:"exact_insts_per_s"`
	SampleInstsPerSec float64 `json:"sample_insts_per_s"`
	// Speedup is simulated instructions per host second, sampled over
	// exact (same program, so also the wall-clock ratio).
	Speedup float64 `json:"speedup"`
}

// SampleReport aggregates the per-benchmark validation for
// BENCH_sample.json and the CI accuracy gate. Period/Interval/Warmup
// describe the suite default point; benchmarks with their own operating
// point record it in their SampleBench entry.
type SampleReport struct {
	Scale          int           `json:"scale"`
	Period         uint64        `json:"period"`
	Interval       uint64        `json:"interval"`
	Warmup         uint64        `json:"warmup"`
	Ramp           uint64        `json:"ramp"`
	Benches        []SampleBench `json:"benches"`
	AmeanAbsErrPct float64       `json:"amean_abs_err_pct"`
	AmeanSpeedup   float64       `json:"amean_speedup"`
	CoveredCount   int           `json:"covered_count"`
}

// Sampling validates sampled simulation against exact golden runs: the
// enhanced DMP machine simulated exactly and in SampleMode on every
// benchmark, with per-benchmark IPC error, 95% confidence interval, and
// CI coverage. Throughput (the point of sampling) is wall-clock
// dependent, so it stays out of the deterministic table; dmpexp
// -sample-json records it.
func Sampling(o Options) (*Table, error) {
	t, _, err := SamplingReport(o)
	return t, err
}

// SamplingReport is Sampling plus the machine-readable report behind
// BENCH_sample.json and the -sample-gate accuracy check.
func SamplingReport(o Options) (*Table, *SampleReport, error) {
	o = o.norm()
	exCfg := core.EnhancedDMPConfig()
	exact, err := runSuite(exCfg, o)
	if err != nil {
		return nil, nil, err
	}

	results := make([]*sample.Result, len(o.Benchmarks))
	sampleWalls := make([]float64, len(o.Benchmarks))
	points := make([]core.SamplePoint, len(o.Benchmarks))
	errs := make([]error, len(o.Benchmarks))
	var wg sync.WaitGroup
	for i, bench := range o.Benchmarks {
		pt := pointFor(o, bench)
		points[i] = pt
		sCfg := exCfg
		sCfg.SampleMode = true
		sCfg.CheckRetirement = true
		sCfg.SamplePoint = pt
		wg.Add(1)
		go func(i int, bench string, sCfg core.Config) {
			defer wg.Done()
			results[i], sampleWalls[i], errs[i] = sampleCached(bench, sCfg, o)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("%s: %w", bench, errs[i])
			}
		}(i, bench, sCfg)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}

	def := core.SamplePoint{}.WithDefaults()
	rep := &SampleReport{Scale: o.Scale, Period: def.SamplePeriod, Interval: def.SampleInterval, Warmup: def.SampleWarmup, Ramp: sample.RampRetired}
	t := &Table{ID: "sampling", Title: "Sampled simulation: fast-forward + warmed intervals vs exact golden runs",
		Header: []string{"bench", "insts", "point", "exact-IPC", "sampled-IPC", "err%", "±ci95", "cover", "k"}}
	var absErrs, speedups []float64
	var detailedFrac float64
	for i, bench := range o.Benchmarks {
		ex, r, pt := exact[i], results[i], points[i]
		b := SampleBench{
			Bench:      bench,
			TotalInsts: r.TotalInsts,
			Period:     pt.SamplePeriod,
			Interval:   pt.SampleInterval,
			Warmup:     pt.SampleWarmup,
			WarmMode:   pt.WarmMode,
			ExactIPC:   ex.IPC(),
			SampledIPC: r.IPC,
			IPCMean:    r.IPCMean,
			CI95:       r.CI95,
			Covered:    r.Covers(ex.IPC()),
			K:          r.K,
			ExactWall:  simCache.Seconds(sched.Key{Bench: bench, Scale: o.Scale, Cfg: exCfg.Canonical()}),
			SampleWall: sampleWalls[i],
		}
		b.ErrPct = 100 * (r.IPC - b.ExactIPC) / b.ExactIPC
		if b.ExactWall > 0 {
			b.ExactInstsPerSec = float64(ex.RetiredInsts) / b.ExactWall
		}
		if b.SampleWall > 0 {
			b.SampleInstsPerSec = float64(r.TotalInsts) / b.SampleWall
		}
		if b.ExactInstsPerSec > 0 {
			b.Speedup = b.SampleInstsPerSec / b.ExactInstsPerSec
			speedups = append(speedups, b.Speedup)
		}
		absErrs = append(absErrs, math.Abs(b.ErrPct))
		detailedFrac += float64(r.DetailedRetired) / float64(r.TotalInsts)
		if b.Covered {
			rep.CoveredCount++
		}
		rep.Benches = append(rep.Benches, b)
		cover := "no"
		if b.Covered {
			cover = "yes"
		}
		point := fmt.Sprintf("%d/%d", pt.SamplePeriod, pt.SampleInterval)
		if pt.SampleWarmup != 0 {
			point += fmt.Sprintf("+w%d", pt.SampleWarmup)
		}
		if pt.WarmMode != "full" {
			point += "/" + pt.WarmMode
		}
		t.AddRow(bench, d(r.TotalInsts), point, f3(b.ExactIPC), f3(b.SampledIPC),
			f2(b.ErrPct), f3(b.CI95), cover, strconv.Itoa(b.K))
	}
	rep.AmeanAbsErrPct = amean(absErrs)
	rep.AmeanSpeedup = amean(speedups)
	t.AddRow("amean", "", "", "", "", f2(rep.AmeanAbsErrPct), "", "", "")
	t.Note = fmt.Sprintf(
		"point = period/interval[+w warmup][/warm-mode], per-benchmark operating points (default %d/%d, full warming); "+
			"ramp %d (detailed %.1f%% of instructions); "+
			"err%% = sampled vs exact IPC, amean of |err%%|; cover = exact IPC within mean ± ci95; "+
			"speedups are wall-clock dependent and reported via dmpexp -sample-json",
		def.SamplePeriod, def.SampleInterval, sample.RampRetired, 100*detailedFrac/float64(len(o.Benchmarks)))
	return t, rep, nil
}
