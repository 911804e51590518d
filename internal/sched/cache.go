package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmp/internal/core"
	"dmp/internal/telemetry"
)

// Key identifies one unique simulation: the tuple the result cache and
// the persistent store are both keyed by. Cfg must already be
// canonicalized (core.Config.Canonical) so that configurations that
// cannot change the result share one entry; Check rides outside the
// config because Canonical deliberately folds CheckRetirement away.
type Key struct {
	Bench string
	Scale int
	Check bool // golden-model retirement checker on
	Loops bool // loop-marked annotation variant (Section 2.7.4)
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
	if k.Loops {
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

// entry is a once-run cache slot.
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
	// either loaded from the backing store or computed.
	Misses uint64
	// StoreHits are misses served from the backing store without
	// running a simulation.
	StoreHits uint64
	// Computed are simulations actually executed.
	Computed uint64
}

// Job describes how to compute a missing entry: the pool to take a
// worker slot from, the telemetry parent span, and the computation
// itself (called with the simulation's own async child span, or nil
// when telemetry is off).
type Job struct {
	Pool *Pool
	Span *telemetry.Span
	Run  func(sp *telemetry.Span) (*core.Stats, error)
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
	entries sync.Map // Key -> *entry
	backing atomic.Pointer[backingBox]

	hits      atomic.Uint64
	misses    atomic.Uint64
	storeHits atomic.Uint64
	computed  atomic.Uint64
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
// worker). The returned Stats are shared and frozen: Clone before
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
		c.computed.Add(1)
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
		e.st, e.err = job.Run(sp)
		if e.err == nil {
			e.frozen = *e.st
		}
		sp.End()
		elapsed := time.Since(t0).Seconds() //dmp:allow nondeterminism -- host telemetry only
		mSimSeconds.Observe(elapsed)
		if tel != nil {
			tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: "done", V: elapsed})
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
		if e.err == nil && *e.st != e.frozen {
			panic(fmt.Sprintf("sched: cached Stats for %s/%v (scale %d) were mutated; cached results are frozen — use Stats.Clone",
				key.Bench, key.Cfg.Mode, key.Scale))
		}
	}
	return e.st, e.err
}

// Counts returns the cache's request accounting since construction or
// the last Reset.
func (c *Cache) Counts() Counts {
	return Counts{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		StoreHits: c.storeHits.Load(),
		Computed:  c.computed.Load(),
	}
}

// Reset drops every in-memory entry and zeroes the counters. The
// backing store, if any, stays installed and keeps its contents — a
// reset process recomputes nothing that persisted.
func (c *Cache) Reset() {
	c.entries.Range(func(k, _ any) bool {
		c.entries.Delete(k)
		return true
	})
	c.hits.Store(0)
	c.misses.Store(0)
	c.storeHits.Store(0)
	c.computed.Store(0)
}
