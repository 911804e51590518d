package sched

import (
	"fmt"
	"slices"
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

// entry is a request's once-run slot in the request map. done is set
// once the slot is filled; a call that panics while filling it removes
// the entry instead, and callers that waited on it look again.
type entry struct {
	once   sync.Once
	done   bool
	st     *core.Stats
	frozen core.Stats // snapshot taken at publication; guards the read-only invariant
	err    error
	run    atomic.Int64 // time.Duration job.Run took; atomic, as Seconds may read a filling entry
}

// family holds the simulations of one family, finished or running:
// simulation keys equal but for the knobs core.Evidence vouches for
// (core.Config.Family). A request simulates only once no run of its
// family can answer it: no finished run answers it, and every running
// one has already recorded a knob the two differ in as exercised
// (core.Evidence.Excludes). Until then it waits on cond, holding no
// worker slot. So no two runs of a family can answer each other, and
// the family runs one simulation per class of "answers" among its
// requests, whatever their order or the pool size; runs that cannot
// answer each other go ahead side by side.
type family struct {
	mu   sync.Mutex
	cond *sync.Cond // on mu; broadcast when a run reports evidence, finishes or is dropped
	runs []*simRun
}

// simRun is one simulation of a family. Until done, ev is the evidence
// the run has reported so far; then it holds the run's result. A failed
// run answers only its own key, with its error. Every field is guarded
// by the family's mu.
type simRun struct {
	key    Key
	done   bool
	st     *core.Stats
	frozen core.Stats
	ev     core.Evidence
	err    error
	run    time.Duration // time job.Run took
}

// answers reports whether the finished run r answers the simulation key k.
func (r *simRun) answers(k Key) bool {
	return r.key == k || (r.err == nil && r.ev.Answers(r.key.Cfg, k.Cfg))
}

// mayAnswer reports whether r, still running, may yet answer k.
func (r *simRun) mayAnswer(k Key) bool {
	return r.key == k || !r.ev.Excludes(r.key.Cfg, k.Cfg)
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
	// Shared are misses answered by a simulation another request ran:
	// one with an equal simulation key, or one whose knob evidence shows
	// it is the same run (Job.Run).
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
//
// Run returns the simulation's Stats and its knob evidence: a finished
// run also answers every simulation key of its family that its evidence
// answers (core.Evidence.Answers). Zero evidence answers only the run's
// own key. While it runs, Run may hand progress the evidence recorded so
// far, which must never be more exercised than the finished run's: a
// request of the family that it excludes starts its own simulation
// without waiting for the run to finish.
type Job struct {
	Pool   *Pool
	Span   *telemetry.Span
	SimKey func() (Key, error)
	Run    func(sp *telemetry.Span, progress func(core.Evidence)) (*core.Stats, core.Evidence, error)
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
	entries  sync.Map // request Key -> *entry
	families sync.Map // family Key (Job.SimKey's core.Config.Family) -> *family
	backing  atomic.Pointer[backingBox]

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
// worker). A miss the backing store does not answer takes its
// simulation key (Job.SimKey) to the key's family, where a finished run
// that answers the key answers it: an equal key, or a run whose evidence
// shows the knobs the two differ in never exercised. While a running
// simulation of the family may still answer it, the request waits for
// it; only when none can does it simulate (family). Every answer is
// exact, so the number of simulations depends neither on the order of
// requests nor on the pool size. Each request still publishes under,
// and writes through to the store under, its own key. A job that panics
// poisons no key: the panic reaches the call that ran it, and the next
// request for the key, or one that waited on it, computes afresh. The
// returned Stats are shared and frozen: Clone before mutating.
func (c *Cache) Do(key Key, job Job) (*core.Stats, error) {
	for {
		v, _ := c.entries.LoadOrStore(key, &entry{})
		e := v.(*entry)
		hit := true
		t0 := time.Now() //dmp:allow nondeterminism -- host telemetry only; never reaches Stats or tables
		e.once.Do(func() {
			hit = false
			defer func() {
				if !e.done {
					c.entries.CompareAndDelete(key, e)
				}
			}()
			c.fill(key, e, job)
			e.done = true
		})
		if !e.done {
			continue // the call that filled e panicked
		}
		if hit {
			c.hits.Add(1)
			mCacheHits.Inc()
			// Covers both flavors of hit: an instant lookup of a
			// completed entry (~0) and blocking on another request's
			// in-flight simulation (the singleflight case the histogram
			// exists for).
			mSingleflightWait.Observe(time.Since(t0).Seconds()) //dmp:allow nondeterminism -- host telemetry only
			if tel := telemetry.Active(); tel != nil {
				tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: key.Label(), Msg: "hit"})
			}
			c.checkFrozen(key, e)
		}
		return e.st, e.err
	}
}

// fill computes the missing entry e for key: from the backing store, or
// from the run of key's family that answers it.
func (c *Cache) fill(key Key, e *entry, job Job) {
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
	r, ran := c.answer(simKey, label, job)
	e.st, e.frozen, e.err = r.st, r.frozen, r.err
	e.run.Store(int64(r.run))
	if !ran {
		// Waiting on another request's simulation holds no slot,
		// like a duplicate request.
		c.shared.Add(1)
		mShared.Inc()
		msg := "shared"
		if r.key != simKey {
			mEvidenceShared.Inc()
			msg = "shared-evidence"
		}
		if tel != nil {
			tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: msg})
		}
		c.checkFrozen(key, e)
	}
	if e.err == nil {
		if b := c.getBacking(); b != nil {
			b.Store(key, e.st)
		}
	}
}

// answer returns the finished run of simKey's family that answers it,
// simulating it first if no run of the family can; ran reports that this
// call simulated. A run whose job.Run panics is dropped from the family
// before the panic goes on, and its waiters look again.
func (c *Cache) answer(simKey Key, label string, job Job) (r *simRun, ran bool) {
	fk := simKey
	fk.Cfg = fk.Cfg.Family()
	fv, _ := c.families.LoadOrStore(fk, newFamily())
	f := fv.(*family)
	f.mu.Lock()
	if r := f.await(simKey); r != nil {
		f.mu.Unlock()
		return r, false
	}
	r = &simRun{key: simKey}
	f.runs = append(f.runs, r)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		if !r.done {
			f.runs = slices.DeleteFunc(f.runs, func(o *simRun) bool { return o == r })
		}
		f.mu.Unlock()
		f.cond.Broadcast()
	}()
	progress := func(ev core.Evidence) {
		f.mu.Lock()
		changed := !r.done && ev != r.ev
		if changed {
			r.ev = ev
		}
		f.mu.Unlock()
		if changed {
			f.cond.Broadcast()
		}
	}
	st, ev, d, err := c.simulate(label, job, progress)
	f.mu.Lock()
	r.done, r.st, r.ev, r.err, r.run = true, st, ev, err, d
	if err == nil {
		r.frozen = *st
	}
	f.mu.Unlock()
	return r, true
}

func newFamily() *family {
	f := &family{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// await waits, holding f.mu, until a finished run answers k, which it
// returns, or no running run may answer k any more (nil).
func (f *family) await(k Key) *simRun {
	for {
		pending := false
		for _, r := range f.runs {
			if r.done && r.answers(k) {
				return r
			}
			pending = pending || (!r.done && r.mayAnswer(k))
		}
		if !pending {
			return nil
		}
		f.cond.Wait()
	}
}

// simulate runs a simulation for the request that found it missing: it
// takes a worker slot, records the slot wait, the simulation's wall time
// from its slot request and job.Run's (d), and returns job.Run's result.
func (c *Cache) simulate(label string, job Job, progress func(core.Evidence)) (st *core.Stats, ev core.Evidence, d time.Duration, err error) {
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
	tq := time.Now() //dmp:allow nondeterminism -- host time: telemetry only
	pool.Acquire()
	t1 := time.Now() //dmp:allow nondeterminism -- host time: telemetry and Seconds only
	mSlotWait.Observe(t1.Sub(tq).Seconds())
	defer pool.Release()
	st, ev, err = job.Run(sp, progress)
	t2 := time.Now() //dmp:allow nondeterminism -- host time: telemetry and Seconds only
	sp.End()
	elapsed := t2.Sub(tq).Seconds()
	mSimSeconds.Observe(elapsed)
	if tel != nil {
		tel.Feed().Emit(telemetry.Event{Kind: "simulation", Name: label, Msg: "done", V: elapsed})
	}
	return st, ev, t2.Sub(t1), err
}

// Seconds returns the host seconds job.Run took for the simulation that
// answered key; requests that shared the simulation read the same value.
// It is kept beside the Stats, never in them, and is 0 while key is
// unrequested or running, or when the backing store answered it.
func (c *Cache) Seconds(key Key) float64 {
	v, ok := c.entries.Load(key)
	if !ok {
		return 0
	}
	return time.Duration(v.(*entry).run.Load()).Seconds()
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
	for _, m := range []*sync.Map{&c.entries, &c.families} {
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
