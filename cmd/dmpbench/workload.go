package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmp/internal/prog"
	"dmp/internal/telemetry"
)

// A workloadSpec is one named set of inputs the benchmark runs. Every
// workload is a closed loop driven from this process: each client sends
// its next operation only after the previous one completed, and no
// workload uses more than nproc workers or clients.
type workloadSpec struct {
	name string
	why  string
	// minRounds is the fewest rounds a measured run makes whatever its
	// time budget: enough operations that op_ms_p75 has minBeyond
	// samples above it (TestWorkloadSizesCoverTail).
	minRounds int
	// opsPerRound is the number of operations one full-size round times.
	opsPerRound int
	newJob      func(seed uint64, smoke bool) job
}

var workloads = []workloadSpec{
	{
		name:        "paper-suite",
		why:         "cold dmpexp all at scale 1 checked against the golden: many short simulations, where sched dedups and schedules most of the work",
		minRounds:   3,
		opsPerRound: 16,
		newJob:      newSuiteJob,
	},
	{
		name:        "exact-long",
		why:         "long exact simulations called on core directly: steady-state core and emu throughput, with sched and sample bypassed",
		minRounds:   3,
		opsPerRound: 30,
		newJob:      newExactJob,
	},
	{
		name:        "sampled-long",
		why:         "SMARTS-style sampled runs at scale 40: functional warming, copy-on-write snapshots and the interval pipeline, with sched bypassed",
		minRounds:   4,
		opsPerRound: 15,
		newJob:      newSampledJob,
	},
	{
		name:        "serve-restart",
		why:         "dmpserve over a fresh store, then restarted over it, then hot: store writes and reads, serve and sched, with core idle after the cold phase",
		minRounds:   3,
		opsPerRound: 60,
		newJob:      newServeJob,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// job is one workload instance, built from a seed.
type job interface {
	// setup does everything before the timed phase. The runner calls it
	// setupReps times and reports the median, so it must leave the job
	// ready for rounds however often it runs.
	setup(sp *telemetry.Span) error
	// round runs the workload's fixed work once, recording every
	// operation in rc. An error is a fault of the benchmark itself and
	// ends the run without a result.
	round(rc *roundCtx) error
	// probeSet names the programs the traced run's layer probes use.
	probeSet() probeSet
}

// benchProg is one benchmark program a workload simulates.
type benchProg struct {
	bench string
	p     *prog.Program
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// nproc bounds every workload's workers and clients.
var nproc = runtime.NumCPU()

// roundCtx collects what one round measured. Operations may finish on
// several goroutines at once.
type roundCtx struct {
	span *telemetry.Span // nil when the round is untraced
	name string          // workload name, for failure messages

	mu        sync.Mutex
	ops       []float64 // per-operation latency, seconds
	attempted int
	failed    int
	counts    map[string]float64 // per-layer counts the workload reports itself
	insts     uint64             // instructions the round's simulations covered
}

// op records one timed operation: its latency, and err if its output
// failed a check. A failed operation still counts as attempted.
func (rc *roundCtx) op(d time.Duration, err error) {
	rc.mu.Lock()
	rc.ops = append(rc.ops, d.Seconds())
	rc.mu.Unlock()
	rc.call(err)
}

// call records an operation that is not one of the timed ones.
func (rc *roundCtx) call(err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.attempted++
	if err != nil {
		rc.failed++
		reportFailure(rc.name, err)
	}
}

// fail records a check that failed outside any single operation.
func (rc *roundCtx) fail(err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.failed++
	reportFailure(rc.name, err)
}

// count sets one of the workload's own per-layer counts for this round.
func (rc *roundCtx) count(name string, v float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.counts[name] = v
}

// simulated adds instructions the round's simulations covered.
func (rc *roundCtx) simulated(insts uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.insts += insts
}

var (
	failMu    sync.Mutex
	failShown int
)

// reportFailure prints the first few failures to standard error; the
// counts in the result carry the rest.
func reportFailure(workload string, err error) {
	failMu.Lock()
	defer failMu.Unlock()
	if failShown++; failShown <= 5 {
		fmt.Fprintf(os.Stderr, "dmpbench: %s: %v\n", workload, err)
	}
}

// runOpts are the knobs of one workload run.
type runOpts struct {
	seed    uint64
	seconds float64
	smoke   bool
	// traceDir, when set, makes the run traced: per-layer metrics, with
	// spans.json and layers.json written there.
	traceDir string
}

// roundResult is one finished round.
type roundResult struct {
	wall   float64
	traced bool
	rc     *roundCtx
	reg    reading // registry delta over the round
}

// runWorkload runs one workload in this process and returns its outcome:
// the end-to-end metrics when untraced, the per-layer metrics when
// traced.
func runWorkload(w workloadSpec, o runOpts) (Outcome, error) {
	if err := checkRegistry(); err != nil {
		return Outcome{}, err
	}
	traced := o.traceDir != ""
	j := w.newJob(o.seed, o.smoke)
	if c, ok := j.(io.Closer); ok {
		defer c.Close()
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		sp := tr.begin("setup", 0)
		t0 := time.Now()
		err := j.setup(sp)
		setups = append(setups, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return Outcome{}, fmt.Errorf("setup: %w", err)
		}
	}

	// A traced run alternates untraced and traced rounds so that
	// trace_overhead_pct compares rounds of one process under one load.
	minRounds := w.minRounds
	if o.smoke {
		minRounds = 1
	}
	if traced && minRounds < 2 {
		minRounds = 2
	}
	var rounds []roundResult
	start := time.Now()
	longest := 0.0
	for r := 0; r < minRounds || time.Since(start).Seconds()+longest <= o.seconds; r++ {
		rr := roundResult{traced: traced && r%2 == 1}
		var sp *telemetry.Span
		if rr.traced {
			sp = tr.begin("round", r+1)
		}
		rr.rc = &roundCtx{span: sp, name: w.name, counts: map[string]float64{}}
		before := readRegistry()
		t0 := time.Now()
		err := j.round(rr.rc)
		rr.wall = time.Since(t0).Seconds()
		sp.End()
		if err != nil {
			return Outcome{}, fmt.Errorf("round %d: %w", r+1, err)
		}
		rr.reg = readRegistry().minus(before)
		rounds = append(rounds, rr)
		longest = max(longest, rr.wall)
	}

	oc := Outcome{Metrics: map[string]Metric{}}
	var ops, walls []float64
	for _, rr := range rounds {
		oc.Attempted += rr.rc.attempted
		oc.Failed += rr.rc.failed
		ops = append(ops, rr.rc.ops...)
		walls = append(walls, rr.wall)
	}
	if !traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return Outcome{}, err
		}
		put(oc.Metrics, endToEnd, map[string]float64{
			"setup_s":     median(setups),
			"peak_rss_mb": rss,
			"round_s":     median(walls),
			"op_ms_p50":   percentile(ops, 50) * 1e3,
			"op_ms_p75":   percentile(ops, 75) * 1e3,
		})
	} else {
		vals := roundLayers(rounds)
		sp := tr.begin("probe", 0)
		probed, err := probeLayers(j.probeSet(), sp)
		sp.End()
		if err != nil {
			return Outcome{}, fmt.Errorf("probes: %w", err)
		}
		for k, v := range probed {
			vals[k] = v
		}
		put(oc.Metrics, perLayer, vals)
		if err := tr.write(o.traceDir, w.name, oc.Metrics); err != nil {
			return Outcome{}, err
		}
	}
	oc.Correct = oc.Failed == 0
	tail := "too few for a tail percentile"
	if p, ok := tailPercentile(len(ops)); ok {
		tail = fmt.Sprintf("tail percentile p%g", p)
	}
	fmt.Fprintf(os.Stderr, "dmpbench: %s: %d operations timed (%s); set-ups %.3f s; rounds %.3f s\n",
		w.name, len(ops), tail, setups, walls)
	return oc, nil
}

// put stores every metric of defs, taking its value from vals; a metric
// vals lacks is a bug in the benchmark and panics.
func put(dst map[string]Metric, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("dmpbench: no value for metric " + d.Name)
		}
		dst[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
}

// roundLayers derives the per-layer metrics the rounds themselves give:
// trace overhead, operation statistics, and the scheduler and sampler
// numbers read from the program's always-on metrics registry. Counts are
// per round (the median; rounds of one seed repeat them exactly), times
// are shares of the rounds' wall time, summed across workers.
func roundLayers(rounds []roundResult) map[string]float64 {
	var plain, traced, nops []float64
	var insts uint64
	var wallSum float64
	perRound := map[string][]float64{}
	sums := reading{}
	for _, rr := range rounds {
		if rr.traced {
			traced = append(traced, rr.wall)
		} else {
			plain = append(plain, rr.wall)
		}
		wallSum += rr.wall
		nops = append(nops, float64(len(rr.rc.ops)))
		insts += rr.rc.insts
		g := rr.reg
		hits, misses, storeHits := g[regHits], g[regMisses], g[regStoreHits]
		ratio := 0.0
		if hits+misses > 0 {
			ratio = hits / (hits + misses)
		}
		for k, v := range map[string]float64{
			"sched.requests":    hits + misses,
			"sched.computed":    misses - storeHits,
			"sched.reused":      hits,
			"sched.store_hits":  storeHits,
			"sched.reuse_ratio": ratio,
			"sched.shed":        g[regShed],
			"sample.intervals":  g[regIntervals],
		} {
			perRound[k] = append(perRound[k], v)
		}
		for _, k := range []string{"sched.cold.computed", "sched.restart.store_hits", "sched.restart.computed", "sched.hot.hits"} {
			perRound[k] = append(perRound[k], rr.rc.counts[k])
		}
		for k, v := range g {
			sums[k] += v
		}
	}
	vals := map[string]float64{
		"trace_overhead_pct": 100 * (median(traced)/median(plain) - 1),
		"op.count":           median(nops),
		"sim.kips":           float64(insts) / wallSum / 1e3,
	}
	for k, v := range perRound {
		vals[k] = median(v)
	}
	for name, hist := range map[string]string{
		"sched.slot_wait_pct":         regSlotWait,
		"sched.singleflight_wait_pct": regSingleflight,
		"sched.simulation_pct":        regSimulation,
		"sample.prefix_pct":           regPrefix,
		"sample.warm_pct":             regWarm,
		"sample.snapshot_pct":         regSnapshot,
		"sample.detailed_pct":         regDetailed,
	} {
		vals[name] = 100 * sums[hist] / wallSum
	}
	return vals
}

// Registry metrics the benchmark reads. They are the program's own
// always-on counters and histogram sums; a rename there must fail the
// benchmark rather than silently read zero, so checkRegistry is called
// before any run.
const (
	regHits         = "dmp_sched_cache_hits_total"
	regMisses       = "dmp_sched_cache_misses_total"
	regStoreHits    = "dmp_sched_store_hits_total"
	regShed         = "dmp_sched_shed_total"
	regSlotWait     = "dmp_sched_slot_wait_seconds"
	regSingleflight = "dmp_sched_singleflight_wait_seconds"
	regSimulation   = "dmp_sched_simulation_seconds"
	regPrefix       = "dmp_sample_prefix_seconds"
	regWarm         = "dmp_sample_warm_seconds"
	regSnapshot     = "dmp_sample_snapshot_seconds"
	regDetailed     = "dmp_sample_detailed_seconds"
	regIntervals    = "dmp_sample_intervals_total"
)

var registryNames = []string{regHits, regMisses, regStoreHits, regShed, regSlotWait, regSingleflight,
	regSimulation, regPrefix, regWarm, regSnapshot, regDetailed, regIntervals}

// reading maps registry metric names to counter values and histogram
// sums.
type reading map[string]float64

func readRegistry() reading {
	snap := telemetry.DefaultRegistry().Snapshot()
	r := reading{}
	for _, c := range snap.Counters {
		r[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		r[h.Name] = h.Sum
	}
	return r
}

func checkRegistry() error {
	r := readRegistry()
	for _, n := range registryNames {
		if _, ok := r[n]; !ok {
			return fmt.Errorf("metrics registry has no %s", n)
		}
	}
	return nil
}

func (r reading) minus(prev reading) reading {
	d := reading{}
	for k, v := range r {
		d[k] = v - prev[k]
	}
	return d
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
