package exp

import (
	"fmt"
	"sync"
	"time"

	"dmp/internal/core"
	"dmp/internal/sample"
	"dmp/internal/sched"
	"dmp/internal/telemetry"
)

// Simulation results are memoized process-wide by internal/sched's
// singleflight result cache, one entry per unique (benchmark, scale,
// annotation-variant, canonical config) tuple. `dmpexp all`
// asks for the same simulation many times over — the baseline suite
// alone is needed by table3, fig1, fig7, fig9, fig11, fig12, dualpath
// and loopdiverge — and the simulator is deterministic, so every repeat
// after the first is a map lookup. Below the request entries, requests
// whose configurations fold to one machine for their program
// (core.Config.FoldFor) share one simulation. This file is now only the glue
// between experiments and the scheduler: it builds the sched.Key,
// supplies the computation (simulate), and re-exports the counters the
// CLI prints. The cache machinery itself — singleflight entries, the
// frozen-Stats snapshot guard, the worker pool, the optional persistent
// backing store the dmpserve daemon installs — lives in internal/sched
// (and internal/store for the on-disk half).
//
// Cached *core.Stats are FROZEN: every caller shares one pointer, so a
// mutation by any of them would silently corrupt every other experiment's
// table. Callers that need to write (accumulate, rescale) must work on a
// core.Stats.Clone(). sched.Cache keeps a private snapshot of each result
// and compares on every hit; a mutated entry is a programming error and
// panics with the offending key rather than returning poisoned numbers.
//
// Worker scheduling is process-global, not per-suite: Options.Parallel
// is a process-level cap — the first acquire sizes one shared slot pool
// (default NumCPU) and every simulation, from any experiment, takes a
// slot only while it actually runs. Cache waiters block on the entry's
// singleflight without holding a slot, so duplicate requests never
// occupy a worker.

// simCache is the process-wide result cache. The dmpserve daemon
// installs a persistent backing store on it (ResultCache().SetBacking);
// the CLI path runs it memory-only.
var simCache = sched.NewCache()

// ResultCache exposes the process-wide result cache so embedders (the
// dmpserve daemon, benchmarks) can install a backing store and read the
// scheduler's counters.
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
// POST /v1/runs come through here. cfg is an exact configuration; sampled
// runs go through sampleCached. The request is keyed by the canonical
// configuration, and the simulation by its fold for the program it runs
// on (core.Config.FoldFor), so requests for one machine share a run. The
// returned Stats are shared and frozen — Clone before mutating.
func RunOne(bench string, cfg core.Config, o Options) (*core.Stats, error) {
	o = o.norm()
	key := sched.Key{Bench: bench, Scale: o.Scale, Cfg: cfg.Canonical()}
	return simCache.Do(key, sched.Job{
		Pool: sched.Shared(o.Parallel),
		Span: o.Span,
		SimKey: func() (sched.Key, error) {
			pe := programFor(bench, o.Scale, cfg)
			if pe.err != nil {
				return sched.Key{}, pe.err
			}
			return sched.Key{Bench: bench, Scale: o.Scale, Cfg: cfg.FoldFor(pe.p)}, nil
		},
		Run: func(*telemetry.Span) (*core.Stats, error) {
			return simulate(bench, cfg, o)
		},
	})
}

// simulate is the uncached simulation behind RunOne: one benchmark, one
// machine configuration, one run. The result is detached from the
// Machine (Clone) so the cache does not pin simulator state.
func simulate(bench string, cfg core.Config, o Options) (*core.Stats, error) {
	pe := programFor(bench, o.Scale, cfg)
	if pe.err != nil {
		return nil, pe.err
	}
	cfg.CheckRetirement = true
	m, err := core.New(pe.p, cfg)
	if err != nil {
		return nil, err
	}
	st, err := m.Run()
	if err != nil {
		// The benchmark name is attached by the caller (runSuite names
		// every failing benchmark at its errors.Join point).
		return nil, fmt.Errorf("under %v: %w", cfg.Mode, err)
	}
	return st.Clone(), nil
}

// --- sampled-run memo ---

// sampleCache memoizes full sample.Result values per (bench, scale,
// canonical sampled config), so the daemon's overlapping clients
// coalesce to one sampled run each, the way RunOne coalesces
// exact runs. It is process-local and never persisted: the result store
// has no kind for a sample.Result yet. Each entry keeps the host seconds
// its sample.Run took beside the Result. Shared Results are read-only by
// the same frozen contract as cached Stats.
var sampleCache sync.Map // sched.Key -> *sampleEntry

type sampleEntry struct {
	once sync.Once
	res  *sample.Result
	secs float64
	err  error
}

// sampleCached runs (or reuses) the sampled simulation of bench under
// sCfg, holding one slot of the global pool for the duration of an
// actual run; its intervals take further slots from the same pool when
// free and run inline otherwise. secs is the host time sample.Run took
// once it held its slot; every request for the key reads the same value.
// An actual run gets its own trace lane under o.Span, labelled like
// sched's exact runs: an experiment's sampled runs overlap, and their
// stage spans are sequential only within one run.
func sampleCached(bench string, sCfg core.Config, o Options) (res *sample.Result, secs float64, err error) {
	key := sched.Key{Bench: bench, Scale: o.Scale, Cfg: sCfg.Canonical()}
	v, _ := sampleCache.LoadOrStore(key, &sampleEntry{})
	e := v.(*sampleEntry)
	e.once.Do(func() {
		pe := programFor(bench, o.Scale, sCfg)
		if pe.err != nil {
			e.err = pe.err
			return
		}
		var sp *telemetry.Span
		if o.Span != nil {
			sp = o.Span.ChildAsync(key.Label(), "sample")
		}
		defer sp.End()
		pool := sched.Shared(o.Parallel)
		pool.Acquire()
		defer pool.Release()
		t0 := time.Now() //dmp:allow nondeterminism -- host time: the sampling report's walls only
		e.res, e.err = sample.Run(pe.p, sCfg, sample.Options{Slots: pool.Chan(), Span: sp})
		e.secs = time.Since(t0).Seconds() //dmp:allow nondeterminism -- host time: the sampling report's walls only
	})
	return e.res, e.secs, e.err
}

// Reset drops every cached program and simulation result and zeroes the
// cache counters. For benchmarks and long-lived embedders that need a
// cold start; experiment correctness never requires it. A backing store
// installed on the result cache stays installed and keeps its contents.
func Reset() {
	resetProgramCache()
	resetSimCache()
}

// ResetResults drops cached simulation results and counters but keeps
// the memoized annotated programs. For benchmarks that want to measure
// what one experiment's simulations cost (the pre-cache semantics: shared
// annotations, fresh runs) rather than a cache lookup.
func ResetResults() {
	resetSimCache()
}

// resetSimCache drops cached simulation and sampled results and zeroes
// the counters.
func resetSimCache() {
	simCache.Reset()
	sampleCache.Range(func(k, _ any) bool {
		sampleCache.Delete(k)
		return true
	})
}
