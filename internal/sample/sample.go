// Package sample implements SMARTS-style sampled simulation for the DMP
// simulator: functional fast-forward with continuous microarchitectural
// warming between short detailed intervals, with full-run Stats
// extrapolated from the measured intervals and reported with CLT
// confidence bounds.
//
// A sampled run has three parts:
//
//  1. A detailed prefix. The first SamplePeriod instructions are
//     simulated exactly from the cold machine state an exact run starts
//     with. Cold-start cycles (compulsory cache misses, untrained
//     predictors) are deterministic, concentrated at the beginning, and
//     — at this simulator's workload scales — a disproportionate share
//     of total cycles; measuring them exactly removes the largest
//     bias/variance source instead of hoping a random window catches it.
//
//  2. One continuous functional pass over the rest of the program
//     (core.Warmer): an architectural emulator that also trains the
//     cache hierarchy, branch predictor, confidence estimator, BTB,
//     RAS, indirect target cache, and merge-point predictor on every
//     instruction — SMARTS-style functional warming. In each
//     SamplePeriod-instruction stratum the driver picks one
//     deterministic pseudo-random offset (stratified sampling; a fixed
//     offset would alias with periodic program phases) and captures an
//     architectural checkpoint plus a deep copy of the warmed state.
//
//  3. One independent detailed interval per checkpoint, dispatched the
//     moment its checkpoint is captured: on a free worker slot,
//     overlapping the rest of the warming pass, or inline on the warming
//     goroutine when no slot is free. Each interval transplants
//     architectural state and warmed state (core.NewFromCheckpointWarm),
//     runs an optional SampleWarmup functional warm window and an
//     unmeasured RampRetired detailed pipeline-fill ramp, then measures
//     SampleInterval retired instructions as a Stats.Delta between two
//     RunUntil snapshots.
//
// Extrapolation: summed interval counters are scaled to the sampled
// region (Stats.Scale) and added to the exact prefix Stats. The cycle
// estimate is prefix cycles + sampled-region instructions x the measured
// CPI ratio; the per-interval CPI spread gives a 95% confidence
// half-width (1.96 s/sqrt(k), CLT) that propagates to an IPC interval.
package sample

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
)

// RampRetired is the unmeasured detailed ramp before each measured
// interval: the machine simulates this many retired instructions to fill
// the pipeline before the measuring snapshot is taken. Beyond filling
// the pipeline, the ramp lets the machine re-establish state functional
// warming cannot see — in-flight wrong-path cache pollution and the
// runahead prefetching it produces — so it is deliberately longer than
// the pipeline itself. Shrinking it below ~512 instructions produces
// measurable per-window IPC bias on memory-bound workloads.
const RampRetired = 512

// PrefixRetired is the length of the exactly-measured detailed prefix.
// Program start is where compulsory misses and cold predictors
// concentrate — at these workload scales the first ~2000 instructions
// can carry 20% of all cycles — and no statistical sample can represent
// them, so the sampler measures the cold-start region exactly and
// extrapolates only over the steady-state remainder.
const PrefixRetired = 2048

// Options controls driver resources (the sampling parameters themselves
// live on core.Config, so the result cache keys on them).
type Options struct {
	// Slots is the worker-slot semaphore intervals run on: a send takes
	// a slot, a receive gives it back. Each interval takes a free slot
	// without blocking and runs on a worker goroutine that overlaps the
	// warming pass; with no slot free it runs inline on the caller's
	// goroutine, which may itself hold a slot from the same pool (the
	// exp package shares its global pool this way). A zero-capacity
	// channel never has a free slot, so every interval runs inline. When
	// nil, a private GOMAXPROCS-sized pool is used. The Result does not
	// depend on which intervals ran where.
	Slots chan struct{}
	// Span, when non-nil, is the telemetry parent span of this run:
	// per-stage child spans (prefix, warm, extrapolate) and per-job
	// snapshot/interval events hang under it. Host-side observability
	// only — never consulted by the sampler itself.
	Span *telemetry.Span
}

// Interval is one measured detailed interval.
type Interval struct {
	// Index is the interval's position in program order.
	Index int `json:"index"`
	// Start is the instruction index (architectural count) where the
	// interval's machine was checkpointed.
	Start uint64 `json:"start"`
	// Warmed counts extra per-interval functional-warming instructions
	// (SampleWarmup; the long-lived state is continuously warmed).
	Warmed uint64 `json:"warmed"`
	// RampRetired counts unmeasured pipeline-fill instructions retired
	// before the measuring snapshot.
	RampRetired uint64 `json:"ramp_retired"`
	// Retired / Cycles are the measured window's Stats.Delta counters.
	Retired uint64 `json:"retired"`
	Cycles  uint64 `json:"cycles"`
	// IPC is Retired/Cycles for this interval.
	IPC float64 `json:"ipc"`
}

// Result is a sampled run: the extrapolated full-run Stats plus the
// per-interval evidence behind them. Its JSON form is the run's
// manifest (WriteManifest): every field but Extrapolated, all
// deterministic, so identical runs encode byte-identically. The stage
// histograms and spans carry the run's per-stage host time.
type Result struct {
	// TotalInsts is the architectural instruction count of the full run
	// (the functional pass runs it end to end; MaxInsts truncates it).
	TotalInsts uint64 `json:"total_insts"`
	// Effective sampling parameters (defaults applied).
	Period      uint64 `json:"period"`
	IntervalLen uint64 `json:"interval"`
	Warmup      uint64 `json:"warmup"`
	Ramp        uint64 `json:"ramp"`
	// PrefixRetired / PrefixCycles are the exactly measured cold-start
	// prefix (~one period from instruction zero).
	PrefixRetired uint64 `json:"prefix_retired"`
	PrefixCycles  uint64 `json:"prefix_cycles"`
	// K is the number of measured intervals; Intervals lists them.
	K int `json:"k"`
	// DetailedRetired / DetailedCycles sum the measured windows and the
	// prefix — every exactly simulated, counted instruction.
	DetailedRetired uint64 `json:"detailed_retired"`
	DetailedCycles  uint64 `json:"detailed_cycles"`
	// IPC is the headline sampled estimate: TotalInsts over (prefix
	// cycles + sampled-region instructions x measured CPI). IPCMean is
	// the unweighted mean of per-interval IPCs (diagnostic only). CI95
	// is the 95% confidence half-width around IPC, from the
	// per-interval CPI spread (CLT over k intervals) propagated through
	// the extrapolation.
	IPC       float64    `json:"ipc"`
	IPCMean   float64    `json:"ipc_mean"`
	CI95      float64    `json:"ci95"`
	Intervals []Interval `json:"intervals"`
	// Extrapolated is the full-run Stats estimate: exact prefix Stats
	// plus interval counters scaled to the sampled region, with
	// RetiredInsts pinned to the exact TotalInsts. Like every field of a
	// Result it is deterministic: callers that want the run's host time
	// measure it around Run.
	Extrapolated *core.Stats `json:"-"`
}

// Covers reports whether the 95% confidence interval around the sampled
// IPC estimate contains ipc (typically the exact run's IPC).
func (r *Result) Covers(ipc float64) bool {
	return math.Abs(ipc-r.IPC) <= r.CI95
}

// Check verifies the accounting invariants of a sampled run from its
// manifest fields alone, with no re-simulation: the interval list
// matches K, intervals appear in program order, every interval's IPC is
// its own retired/cycles, the detailed instruction and cycle sums
// decompose into prefix plus intervals, and the estimate is plausible.
func (r *Result) Check() error {
	if r.K != len(r.Intervals) {
		return fmt.Errorf("k = %d but %d intervals listed", r.K, len(r.Intervals))
	}
	if r.K == 0 {
		return fmt.Errorf("manifest has no intervals")
	}
	var sumR, sumC uint64
	var prev uint64
	for i, iv := range r.Intervals {
		if iv.Index != i {
			return fmt.Errorf("interval %d: index %d out of order", i, iv.Index)
		}
		if iv.Start < prev {
			return fmt.Errorf("interval %d: start %d before previous interval at %d", i, iv.Start, prev)
		}
		prev = iv.Start
		if iv.Retired == 0 || iv.Cycles == 0 {
			return fmt.Errorf("interval %d: empty measurement (%d retired, %d cycles)", i, iv.Retired, iv.Cycles)
		}
		if want := float64(iv.Retired) / float64(iv.Cycles); iv.IPC != want {
			return fmt.Errorf("interval %d: ipc %g but retired/cycles = %g", i, iv.IPC, want)
		}
		sumR += iv.Retired
		sumC += iv.Cycles
	}
	if got := r.PrefixRetired + sumR; got != r.DetailedRetired {
		return fmt.Errorf("detailed_retired %d but prefix %d + interval sum %d = %d",
			r.DetailedRetired, r.PrefixRetired, sumR, got)
	}
	if got := r.PrefixCycles + sumC; got != r.DetailedCycles {
		return fmt.Errorf("detailed_cycles %d but prefix %d + interval sum %d = %d",
			r.DetailedCycles, r.PrefixCycles, sumC, got)
	}
	if r.DetailedRetired > r.TotalInsts {
		return fmt.Errorf("detailed_retired %d exceeds total_insts %d", r.DetailedRetired, r.TotalInsts)
	}
	if r.IPC <= 0 || r.CI95 < 0 {
		return fmt.Errorf("implausible estimate: ipc %g, ci95 %g", r.IPC, r.CI95)
	}
	return nil
}

// WriteManifest writes the result as indented JSON: the interval
// accounting dmpsim -sample-manifest records and dmpobs -manifest
// validates with Check.
func (r *Result) WriteManifest(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// checkpointAt pairs a captured architectural checkpoint with its
// instruction index and the continuously warmed state at that point.
type checkpointAt struct {
	start uint64
	ck    emu.Checkpoint
	ws    *core.WarmState
}

// intervalJob is one detailed interval: the captured checkpoint in, the
// measured interval out. The checkpoint field is cleared as soon as the
// interval completes so the snapshot memory is released while the run is
// still warming.
type intervalJob struct {
	index int
	c     checkpointAt
	iv    Interval
	st    core.Stats
	err   error
}

// pipeline is the interval dispatch of one sampled run: the warming pass
// hands each captured checkpoint to dispatch, which runs its interval on
// a worker goroutine if a slot is free and inline otherwise. Its
// per-checkpoint methods are //dmp:hotpath: they sit between warming and
// detailed simulation, so an accidental per-job allocation (beyond the
// job itself) would scale with interval count.
type pipeline struct {
	p                *prog.Program
	cfg              core.Config
	warmup, interval uint64

	slots chan struct{}  // shared worker slots (may span concurrent runs)
	all   []*intervalJob // every job, in checkpoint order
	wg    sync.WaitGroup // intervals running on worker slots
	detNS atomic.Int64   // detailed-simulation wall time

	// tr/spanID carry the attached telemetry tracer (nil when off) and
	// the run span's id, so runJob can emit per-interval trace events
	// from scalar arguments behind one nil check.
	tr     *telemetry.Tracer
	spanID uint64
}

// runJob simulates one detailed interval and releases its snapshot
// (checkpoint memory + warm state) immediately, instead of holding every
// one until the end of the run.
//
//dmp:hotpath
func (pl *pipeline) runJob(jb *intervalJob) {
	t0 := time.Now() //dmp:allow nondeterminism -- host telemetry only
	jb.iv, jb.st, jb.err = runInterval(pl.p, pl.cfg, jb.c, pl.warmup, pl.interval)
	jb.iv.Index = jb.index
	jb.c = checkpointAt{}
	mLiveSnapshots.Add(-1)
	mIntervals.Inc()
	if pl.tr != nil {
		pl.tr.SpanAt("interval", "sample", t0, time.Since(t0), pl.spanID) //dmp:allow nondeterminism -- host telemetry only
	}
	pl.detNS.Add(time.Since(t0).Nanoseconds()) //dmp:allow nondeterminism -- host telemetry only
}

// dispatch runs a captured checkpoint's interval on a free worker slot,
// or inline when none is free. It never blocks on a slot: a producer
// that already holds one (every slot, even) runs its intervals itself
// instead of deadlocking, and each worker gives its slot back after one
// interval, so no run hoards shared slots while it warms.
//
//dmp:hotpath
func (pl *pipeline) dispatch(jb *intervalJob) {
	pl.all = append(pl.all, jb)
	select {
	case pl.slots <- struct{}{}:
		pl.wg.Add(1)
		go pl.runOnSlot(jb)
	default:
		pl.runJob(jb)
	}
}

// runOnSlot is a worker: one interval, then the slot goes back.
func (pl *pipeline) runOnSlot(jb *intervalJob) {
	pl.runJob(jb)
	<-pl.slots
	pl.wg.Done()
}

// Run samples one program under cfg. cfg.SampleMode must be set; the
// sampling parameters are cfg.SamplePoint with defaults applied.
// cfg.MaxInsts, when non-zero, truncates the sampled region exactly as
// it truncates an exact run.
func Run(p *prog.Program, cfg core.Config, o Options) (*Result, error) {
	if !cfg.SampleMode {
		return nil, fmt.Errorf("sample: config has SampleMode off")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pt := cfg.SamplePoint.WithDefaults()
	period, interval, warmup := pt.SamplePeriod, pt.SampleInterval, pt.SampleWarmup
	start := time.Now() //dmp:allow nondeterminism -- host telemetry only
	maxTotal := cfg.MaxInsts
	prefSpan := o.Span.Child("prefix", "sample")

	// Detailed prefix: the cold-start region, measured exactly.
	prefTarget := uint64(PrefixRetired)
	if period < prefTarget {
		prefTarget = period
	}
	if maxTotal != 0 && maxTotal < prefTarget {
		prefTarget = maxTotal
	}
	pm, err := core.New(p, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := pm.RunUntil(prefTarget); err != nil {
		pm.Finish() //nolint:errcheck // reporting the RunUntil error
		return nil, fmt.Errorf("sample: prefix: %w", err)
	}
	ps, err := pm.Finish()
	if err != nil {
		return nil, fmt.Errorf("sample: prefix: %w", err)
	}
	pre := *ps // value copy; the machine (and its arena) is done
	if pre.HaltRetired || (maxTotal != 0 && pre.RetiredInsts >= maxTotal) {
		return nil, fmt.Errorf("sample: program too short to sample (ends inside the %d-instruction detailed prefix); run exact or shrink -sample-period",
			prefTarget)
	}
	prefR := pre.RetiredInsts
	// Host seconds per stage, observed into the stage histograms once
	// the run succeeds. warmS includes the untrained tail after the last
	// checkpoint.
	prefixS := time.Since(start).Seconds() //dmp:allow nondeterminism -- host telemetry only
	var warmS, snapS float64
	prefSpan.End()

	slots := o.Slots
	if slots == nil {
		slots = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	mcfg := cfg
	mcfg.MaxInsts = 0 // interval machines are bounded by RunUntil targets
	pl := &pipeline{p: p, cfg: mcfg, warmup: warmup, interval: interval, slots: slots,
		tr: o.Span.Tracer(), spanID: o.Span.ID()}
	defer pl.wg.Wait() // on error returns too: no worker outlives Run or keeps its slot

	// Continuous functional warming pass over [prefR, total), capturing
	// one checkpoint per period at a stratified pseudo-random offset.
	warmSpan := o.Span.Child("warm", "sample")
	w, err := core.NewWarmer(p, cfg)
	if err != nil {
		return nil, err
	}
	warmTo := func(target uint64) error {
		t0 := time.Now() //dmp:allow nondeterminism -- host telemetry only
		err := w.WarmTo(target)
		warmS += time.Since(t0).Seconds() //dmp:allow nondeterminism -- host telemetry only
		return err
	}
	if err := warmTo(prefR); err != nil {
		return nil, err
	}
	offRange := uint64(1)
	if period > warmup+interval+RampRetired {
		offRange = period - warmup - interval - RampRetired + 1
	}
	for j := uint64(0); ; j++ {
		base := prefR + j*period
		if maxTotal != 0 && base >= maxTotal {
			break
		}
		if err := warmTo(base + splitmix64(j)%offRange); err != nil {
			return nil, err
		}
		if w.Halted() {
			break
		}
		t0 := time.Now() //dmp:allow nondeterminism -- host telemetry only
		jb := &intervalJob{index: len(pl.all),
			c: checkpointAt{start: w.Count(), ck: w.Checkpoint(), ws: w.Snapshot()}}
		snapS += time.Since(t0).Seconds() //dmp:allow nondeterminism -- host telemetry only
		mLiveSnapshots.Add(1)
		if pl.tr != nil {
			pl.tr.SpanAt("snapshot", "sample", t0, time.Since(t0), warmSpan.ID()) //dmp:allow nondeterminism -- host telemetry only
		}
		pl.dispatch(jb)
		end := base + period
		if maxTotal != 0 && end > maxTotal {
			end = maxTotal
		}
		if err := warmTo(end); err != nil {
			return nil, err
		}
		if w.Halted() || (maxTotal != 0 && w.Count() >= maxTotal) {
			break
		}
	}
	// Tail after the last checkpoint: plain fast-forward, no training.
	tTail := time.Now() //dmp:allow nondeterminism -- host telemetry only
	if maxTotal == 0 {
		if err := w.RunToHalt(); err != nil {
			return nil, err
		}
	} else if err := w.SkipTo(maxTotal); err != nil {
		return nil, err
	}
	warmS += time.Since(tTail).Seconds() //dmp:allow nondeterminism -- host telemetry only
	warmSpan.End()
	total := w.Count()
	// Results are read in checkpoint order below, so every Result is
	// byte-identical whichever intervals ran on workers.
	pl.wg.Wait()
	if len(pl.all) == 0 {
		return nil, fmt.Errorf("sample: program too short to sample (%d instructions, period %d); run exact or shrink -sample-period",
			total, period)
	}

	tExtrap := time.Now() //dmp:allow nondeterminism -- host telemetry only
	exSpan := o.Span.Child("extrapolate", "sample")
	res := &Result{Period: period, IntervalLen: interval, Warmup: warmup, Ramp: RampRetired,
		TotalInsts: total, PrefixRetired: prefR, PrefixCycles: pre.Cycles}
	agg := core.Stats{}
	var cpis, ipcs []float64
	for i, jb := range pl.all {
		if jb.err != nil {
			return nil, fmt.Errorf("sample: interval %d (insts %d+): %w", i, jb.iv.Start, jb.err)
		}
		if jb.iv.Retired == 0 || jb.iv.Cycles == 0 {
			// The program halted inside this interval's warming or ramp:
			// nothing measured, nothing to extrapolate from.
			continue
		}
		agg = agg.Add(&jb.st)
		cpis = append(cpis, float64(jb.iv.Cycles)/float64(jb.iv.Retired))
		ipcs = append(ipcs, jb.iv.IPC)
		res.Intervals = append(res.Intervals, jb.iv)
	}
	res.K = len(res.Intervals)
	if res.K == 0 {
		return nil, fmt.Errorf("sample: no measurable intervals (program halts inside every measured window)")
	}
	res.DetailedRetired = prefR + agg.RetiredInsts
	res.DetailedCycles = pre.Cycles + agg.Cycles

	// Ratio estimate: sampled-region CPI from the pooled windows, cycle
	// estimate = exact prefix + region instructions x CPI. The
	// per-interval CPI spread gives the CLT half-width, propagated to
	// IPC through the (monotone) cycles -> IPC map.
	sampR := total - prefR
	cpi := float64(agg.Cycles) / float64(agg.RetiredInsts)
	estC := float64(pre.Cycles) + float64(sampR)*cpi
	res.IPC = float64(total) / estC
	res.IPCMean, _ = meanCI95(ipcs)
	_, cpiCI := meanCI95(cpis)
	if dC := float64(sampR) * cpiCI; dC > 0 && dC < estC {
		res.CI95 = (float64(total)/(estC-dC) - float64(total)/(estC+dC)) / 2
	}

	sc := agg.Scale(float64(sampR) / float64(agg.RetiredInsts))
	ex := pre.Add(&sc)
	ex.RetiredInsts = total // the ratio is exact here; don't let rounding drift it
	ex.HaltRetired = w.Halted()
	exSpan.End()
	res.Extrapolated = &ex
	mStagePrefix.Observe(prefixS)
	mStageWarm.Observe(warmS)
	mStageSnapshot.Observe(snapS)
	mStageDetailed.Observe(float64(pl.detNS.Load()) / 1e9)
	mStageExtrapolate.Observe(time.Since(tExtrap).Seconds()) //dmp:allow nondeterminism -- host telemetry only
	return res, nil
}

// runInterval simulates one detailed interval from its checkpoint:
// transplant architectural and warmed state, optional extra functional
// warm, unmeasured ramp, measured window. The returned Stats is the
// measured window's Delta; the machine is finished (arena released)
// before returning.
func runInterval(p *prog.Program, cfg core.Config, c checkpointAt, warmup, interval uint64) (Interval, core.Stats, error) {
	iv := Interval{Start: c.start}
	m, err := core.NewFromCheckpointWarm(p, cfg, c.ck, c.ws)
	if err != nil {
		return iv, core.Stats{}, err
	}
	defer m.Finish() //nolint:errcheck // RunUntil already surfaced runErr
	iv.Warmed, err = m.FunctionalWarm(warmup)
	if err != nil {
		return iv, core.Stats{}, err
	}
	s, err := m.RunUntil(RampRetired)
	if err != nil {
		return iv, core.Stats{}, err
	}
	snap := *s // value snapshot before the measured window
	iv.RampRetired = snap.RetiredInsts
	s, err = m.RunUntil(RampRetired + interval)
	if err != nil {
		return iv, core.Stats{}, err
	}
	d := s.Delta(&snap)
	iv.Retired, iv.Cycles = d.RetiredInsts, d.Cycles
	if d.Cycles > 0 {
		iv.IPC = float64(d.RetiredInsts) / float64(d.Cycles)
	}
	return iv, d, nil
}

// splitmix64 is the SplitMix64 mixing function over a fixed seed: the
// deterministic pseudo-random offset sequence behind stratified window
// placement. Not time- or state-seeded on purpose — sampled runs must be
// reproducible for the result cache and golden tables.
func splitmix64(j uint64) uint64 {
	z := j*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// meanCI95 returns the sample mean and the 95% confidence half-width
// 1.96 s/sqrt(k) (CLT; s is the k-1 sample standard deviation). One
// sample has no spread estimate: the half-width is 0 and coverage
// degenerates to equality, which the accuracy gate treats as suspect by
// requiring k >= 2 separately.
func meanCI95(xs []float64) (mean, ci float64) {
	k := float64(len(xs))
	if k == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= k
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / (k - 1))
	return mean, 1.96 * sd / math.Sqrt(k)
}
