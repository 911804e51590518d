package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/core"
	"dmp/internal/telemetry"
)

// Key identifies one request: the tuple the result cache and the
// persistent store are both keyed by. Cfg must already be canonicalized
// (core.Config.Canonical) so that configurations that cannot change the
// result share one entry. Every simulation is checked, so checking is no
// key dimension. The same type also names a simulation (Job.SimKey),
// which several requests may share.
type Key struct {
	Bench string
	Scale int
	Cfg   core.Config
}

// Label names the simulation for spans and feed events: benchmark,
// machine mode, and the key variants that change what actually runs.
// It allocates; call it only with telemetry active.
func (k Key) Label() string {
	l := fmt.Sprintf("%s/%v", k.Bench, k.Cfg.Mode)
	if k.Cfg.CFMSource != "" && k.Cfg.CFMSource != "annotated" {
		l += "/" + k.Cfg.CFMSource
	}
	if k.Cfg.EnableLoopDiverge {
		l += "/loops"
	}
	return l
}

// Backing is a persistent second-level store behind the in-memory
// cache: consulted on every memory miss, written through after every
// successful computation. Implementations must be safe for concurrent
// use and must never return partially written Stats — a corrupt or
// doubtful entry degrades to (nil, false) and the cache recomputes
// (internal/store implements exactly that contract over a directory).
type Backing interface {
	Load(Key) (*core.Stats, bool)
	Store(Key, *core.Stats)
}

// entry is a once-run cache slot: a request's in the request map, a
// simulation's in the simulation map.
type entry struct {
	once   sync.Once
	st     *core.Stats
	frozen core.Stats // snapshot taken at publication; guards the read-only invariant
	err    error
}

// Counts is a snapshot of the cache's request accounting.
type Counts struct {
	// Hits are requests served from a completed or in-flight in-memory
	// entry (the singleflight case included).
	Hits uint64
	// Misses are requests that found no in-memory entry; each miss
	// loaded from the backing store, computed, or shared.
	Misses uint64
	// StoreHits are misses served from the backing store without
	// running a simulation.
	StoreHits uint64
	// Computed are simulations actually executed.
	Computed uint64
	// Shared are misses answered by a simulation another request with
	// an equal simulation key ran (or is running).
	Shared uint64
}

// Job describes how to compute a missing entry: the pool to take a
// worker slot from, the telemetry parent span, the key of the simulation
// behind the request, and the computation itself (called with the
// simulation's own async child span, or nil when telemetry is off).
//
// SimKey names the simulation the request needs. Requests whose
// simulation keys are equal must give bit-identical Stats, and they
// share one run. It is called only on a miss the backing store did not
// answer, so a store-answered request never pays for it. Nil means the
// request key itself.
type Job struct {
	Pool   *Pool
	Span   *telemetry.Span
	SimKey func() (Key, error)
	Run    func(sp *telemetry.Span) (*core.Stats, error)
}

// Cache is a process-wide singleflight result cache. Results published
// into it are FROZEN: every caller shares one *core.Stats pointer, so a
// mutation by any of them would silently corrupt every other caller's
// numbers. Callers that need to write (accumulate, rescale) must work
// on a core.Stats.Clone(). The cache keeps a private snapshot of each
// result and compares on every hit; a mutated entry is a programming
// error and panics with the offending key rather than returning
// poisoned numbers.
type Cache struct {
	entries sync.Map // request Key -> *entry
	sims    sync.Map // simulation Key (Job.SimKey) -> *entry
	backing atomic.Pointer[backingBox]

	hits      atomic.Uint64
	misses    atomic.Uint64
	storeHits atomic.Uint64
	computed  atomic.Uint64
	shared    atomic.Uint64
}

// backingBox wraps the interface so it can live in an atomic.Pointer.
type backingBox struct{ b Backing }

// NewCache returns an empty memory-only cache.
func NewCache() *Cache { return &Cache{} }

// SetBacking installs (or with nil removes) the persistent second-level
// store. Entries already in memory are unaffected; subsequent misses
// consult and write through it. Safe to call concurrently with Do.
func (c *Cache) SetBacking(b Backing) {
	if b == nil {
		c.backing.Store(nil)
		return
	}
	c.backing.Store(&backingBox{b: b})
}

func (c *Cache) getBacking() Backing {
	bb := c.backing.Load()
	if bb == nil {
		return nil
	}
	return bb.b
}

// Do returns the cached result for key, computing it via job on first
// request. Concurrent requests for the same key block on one execution
// (without holding a worker slot — duplicate requests never occupy a
// worker). A miss the backing store does not answer looks up its
// simulation key (Job.SimKey) in a second singleflight map, so requests
// that differ only in knobs their program never exercises share one run;
// each still publishes under, and writes through to the store under, its
// own key. The returned Stats are shared and frozen: Clone before
// mutating.
func (c *Cache) Do(key Key, job Job) (*core.Stats, error) {
	v, _ := c.entries.LoadOrStore(key, &entry{})
	e := v.(*entry)
	hit := true
	t0 := time.Now() //dmp:allow nondeterminism -- host telemetry only; never reaches Stats or tables
	e.once.Do(func() {
		hit = false
		c.misses.Add(1)
		mCacheMisses.Inc()
		tel := telemetry.Active()
		var label string
		if tel != nil {
			label = key.Label()
		}
		if b := c.getBacking(); b != nil {
			if st, ok := b.Load(key); ok {
				// A store hit publishes without taking a worker slot:
				// the result is already computed, so the pool stays
				// free for simulations that actually need it.
				c.storeHits.Add(1)
				mStoreHits.Inc()
				e.st, e.frozen = st, *st
				if tel != nil {
					tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: "store-hit"})
				}
				return
			}
			mStoreMisses.Inc()
		}
		simKey := key
		if job.SimKey != nil {
			if simKey, e.err = job.SimKey(); e.err != nil {
				return
			}
		}
		sv, _ := c.sims.LoadOrStore(simKey, &entry{})
		s := sv.(*entry)
		ran := false
		s.once.Do(func() {
			ran = true
			c.simulate(s, key, label, job, t0)
		})
		e.st, e.frozen, e.err = s.st, s.frozen, s.err
		if !ran {
			// Waiting on another request's simulation holds no slot,
			// like a duplicate request.
			c.shared.Add(1)
			mShared.Inc()
			if tel != nil {
				tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: "shared"})
			}
			c.checkFrozen(key, e)
		}
		if e.err == nil {
			if b := c.getBacking(); b != nil {
				b.Store(key, e.st)
			}
		}
	})
	if hit {
		c.hits.Add(1)
		mCacheHits.Inc()
		// Covers both flavors of hit: an instant lookup of a completed
		// entry (~0) and blocking on another request's in-flight
		// simulation (the singleflight case the histogram exists for).
		mSingleflightWait.Observe(time.Since(t0).Seconds()) //dmp:allow nondeterminism -- host telemetry only
		if tel := telemetry.Active(); tel != nil {
			tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: key.Label(), Msg: "hit"})
		}
		c.checkFrozen(key, e)
	}
	return e.st, e.err
}

// simulate runs the simulation behind simulation entry s for the
// request key that found it missing: it takes a worker slot, records the
// slot wait and the simulation's wall time, and freezes the result.
func (c *Cache) simulate(s *entry, key Key, label string, job Job, t0 time.Time) {
	c.computed.Add(1)
	tel := telemetry.Active()
	var sp *telemetry.Span
	if tel != nil {
		tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: "miss"})
		// The simulation gets its own trace lane: pooled simulations
		// from one experiment overlap each other and their parent.
		sp = job.Span.ChildAsync(label, "sched")
	}
	pool := job.Pool
	if pool == nil {
		pool = Shared(0)
	}
	pool.Acquire()
	mSlotWait.Observe(time.Since(t0).Seconds()) //dmp:allow nondeterminism -- host telemetry only
	defer pool.Release()
	s.st, s.err = job.Run(sp)
	if s.err == nil {
		s.frozen = *s.st
	}
	sp.End()
	elapsed := time.Since(t0).Seconds() //dmp:allow nondeterminism -- host telemetry only
	mSimSeconds.Observe(elapsed)
	if tel != nil {
		tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: "done", V: elapsed})
	}
}

// checkFrozen panics if a published result was mutated since it was
// frozen.
func (c *Cache) checkFrozen(key Key, e *entry) {
	if e.err == nil && *e.st != e.frozen {
		panic(fmt.Sprintf("sched: cached Stats for %s/%v (scale %d) were mutated; cached results are frozen — use Stats.Clone",
			key.Bench, key.Cfg.Mode, key.Scale))
	}
}

// Counts returns the cache's request accounting since construction or
// the last Reset.
func (c *Cache) Counts() Counts {
	return Counts{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		StoreHits: c.storeHits.Load(),
		Computed:  c.computed.Load(),
		Shared:    c.shared.Load(),
	}
}

// Reset drops every in-memory entry and zeroes the counters. The
// backing store, if any, stays installed and keeps its contents — a
// reset process recomputes nothing that persisted.
func (c *Cache) Reset() {
	for _, m := range []*sync.Map{&c.entries, &c.sims} {
		m.Range(func(k, _ any) bool {
			m.Delete(k)
			return true
		})
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.storeHits.Store(0)
	c.computed.Store(0)
	c.shared.Store(0)
}
