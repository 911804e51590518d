package exp

import (
	"fmt"

	"dmp/internal/core"
	"dmp/internal/sample"
	"dmp/internal/sched"
	"dmp/internal/telemetry"
)

// Simulation results, exact and sampled, are memoized process-wide by
// internal/sched's singleflight result cache, one entry per unique
// (benchmark, scale, canonical config) tuple. `dmpexp all` asks for the
// same simulation many times over — the baseline suite alone is needed
// by table3, fig1, fig7, fig9, fig11, fig12, dualpath and loopdiverge —
// and the simulator is deterministic, so every repeat after the first is
// a map lookup. Below the request entries, requests whose predication
// knobs a finished run of their family shows it never exercised
// (core.Evidence) share one simulation; a sampled run is its own family
// and answers only its own key. This file is only the glue between
// experiments and the scheduler: it builds the sched.Key, supplies the
// computation (simulate, or sample.Run for a sampled configuration), and
// re-exports the counters the CLI prints. The cache machinery itself —
// singleflight entries, the frozen-Stats snapshot guard, the worker
// pool, the optional persistent backing store the dmpserve daemon
// installs (SetStore) — lives in internal/sched (and internal/store for
// the on-disk half).
//
// Cached results are FROZEN: every caller shares one *core.Stats (and
// one *sample.Result), so a mutation by any of them would silently
// corrupt every other experiment's table. Callers that need to write
// (accumulate, rescale) must work on a core.Stats.Clone(). sched.Cache
// keeps a private snapshot of each result's Stats and compares on every
// hit; a mutated entry is a programming error and panics with the
// offending key rather than returning poisoned numbers.
//
// Worker scheduling is process-global, not per-suite: Options.Parallel
// is a process-level cap — the first acquire sizes one shared slot pool
// (default NumCPU) and every simulation, from any experiment, takes a
// slot only while it actually runs. Cache waiters block on the entry's
// singleflight without holding a slot, so duplicate requests never
// occupy a worker.

// simCache is the process-wide result cache. The dmpserve daemon
// installs its store behind it (SetStore); the CLI path runs it
// memory-only.
var simCache = sched.NewCache()

// ResultCache exposes the process-wide result cache so embedders (the
// dmpserve daemon, benchmarks) can read the scheduler's counters.
func ResultCache() *sched.Cache { return simCache }

// SimCounts returns the result-cache reuse and simulation totals since
// process start (or the last Reset): hits are requests served without
// running a simulation of their own (in-memory entries, backing-store
// loads, and misses that shared another request's simulation), misses
// count simulations actually executed.
func SimCounts() (hits, misses uint64) {
	c := simCache.Counts()
	return c.Hits + c.StoreHits + c.Shared, c.Computed
}

// RunOne returns the memoized simulation of bench under cfg, running it
// on first request: every experiment's suites and the dmpserve daemon's
// POST /v1/runs come through here. The request is keyed by the canonical
// configuration, and a finished exact run also answers the requests of
// its family that its knob evidence answers (core.Evidence). A sampled
// cfg (SampleMode) returns the run's extrapolated Stats; runRecord
// returns its sample.Result too. The returned Stats are shared and
// frozen — Clone before mutating.
func RunOne(bench string, cfg core.Config, o Options) (*core.Stats, error) {
	r, err := runRecord(bench, cfg, o)
	return r.Stats, err
}

// runRecord is RunOne returning the cache's whole record of the run.
func runRecord(bench string, cfg core.Config, o Options) (sched.Result, error) {
	o = o.norm()
	return runOn(simCache, sched.Shared(o.Parallel), bench, cfg, o, simulate)
}

// runOn is runRecord on cache c with worker pool pool, computing a
// missing exact simulation with run: simulate, or in tests a memo of it.
// A sampled cfg runs simulateSampled.
func runOn(c *sched.Cache, pool *sched.Pool, bench string, cfg core.Config, o Options,
	run func(string, core.Config, Options, func(core.Evidence)) (*core.Stats, core.Evidence, error)) (sched.Result, error) {
	key := sched.Key{Bench: bench, Scale: o.Scale, Cfg: cfg.Canonical()}
	return c.Do(key, sched.Job{
		Pool: pool,
		Span: o.Span,
		Run: func(sp *telemetry.Span, progress func(core.Evidence)) (sched.Result, core.Evidence, error) {
			if cfg.SampleMode {
				r, err := simulateSampled(bench, cfg, o, pool, sp)
				return r, core.Evidence{}, err
			}
			st, ev, err := run(bench, cfg, o, progress)
			return sched.Result{Stats: st}, ev, err
		},
	})
}

// evidenceEvery is how many instructions an exact run retires between
// reports of its evidence so far.
const evidenceEvery = 1 << 12

// simulate is the uncached simulation behind RunOne: one benchmark, one
// machine configuration, one run, with the run's knob evidence. Every
// evidenceEvery retired instructions it hands the evidence so far to
// progress (if not nil), which lets the result cache start requests the
// run can no longer answer (sched.Job.Run); stopping and resuming at
// those points leaves the run unchanged (core.Machine.RunUntil). The
// result is detached from the Machine (Clone) so the cache does not pin
// simulator state.
func simulate(bench string, cfg core.Config, o Options, progress func(core.Evidence)) (*core.Stats, core.Evidence, error) {
	pe := programEntry(bench, o.Scale)
	if pe.err != nil {
		return nil, core.Evidence{}, pe.err
	}
	cfg.CheckRetirement = true
	m, err := core.New(pe.p, cfg)
	if err != nil {
		return nil, core.Evidence{}, err
	}
	for n := uint64(evidenceEvery); cfg.MaxInsts == 0 || n < cfg.MaxInsts; n += evidenceEvery {
		// A run short of n has halted, run out of cycles or failed.
		if st, err := m.RunUntil(n); err != nil || st.RetiredInsts < n {
			break
		}
		if progress != nil {
			progress(m.Evidence())
		}
	}
	st, err := m.Run()
	if err != nil {
		// The benchmark name is attached by the caller (perBench names
		// every failing benchmark at its errors.Join point).
		return nil, core.Evidence{}, fmt.Errorf("under %v: %w", cfg.Mode, err)
	}
	return st.Clone(), m.Evidence(), nil
}

// simulateSampled is simulate for a sampled configuration: sample.Run
// on the slot the result cache took for it, with its intervals on
// pool's free slots and its stage spans under sp. It records no knob
// evidence, so it answers only its own key.
func simulateSampled(bench string, cfg core.Config, o Options, pool *sched.Pool, sp *telemetry.Span) (sched.Result, error) {
	pe := programEntry(bench, o.Scale)
	if pe.err != nil {
		return sched.Result{}, pe.err
	}
	cfg.CheckRetirement = true
	r, err := sample.Run(pe.p, cfg, sample.Options{Slots: pool.Chan(), Span: sp})
	if err != nil {
		return sched.Result{}, err
	}
	return sched.Result{Stats: r.Extrapolated, Sample: r}, nil
}

// Reset drops every cached program and simulation result and zeroes the
// cache counters. For benchmarks and long-lived embedders that need a
// cold start; experiment correctness never requires it. A store
// installed with SetStore stays installed and keeps its contents.
func Reset() {
	resetProgramCache()
	simCache.Reset()
}

// ResetResults drops cached simulation results and counters but keeps
// the memoized annotated programs. For benchmarks that want to measure
// what one experiment's simulations cost (the pre-cache semantics: shared
// annotations, fresh runs) rather than a cache lookup.
func ResetResults() {
	simCache.Reset()
}
