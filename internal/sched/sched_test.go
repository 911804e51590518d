package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmp/internal/core"
	"dmp/internal/telemetry"
)

func testKey(bench string) Key {
	return Key{Bench: bench, Scale: 1, Cfg: core.DefaultConfig().Canonical()}
}

// fakeBacking is an in-memory Backing with call accounting.
type fakeBacking struct {
	mu     sync.Mutex
	m      map[Key]core.Stats
	loads  atomic.Uint64
	stores atomic.Uint64
}

func newFakeBacking() *fakeBacking { return &fakeBacking{m: map[Key]core.Stats{}} }

func (f *fakeBacking) Load(k Key) (*core.Stats, bool) {
	f.loads.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.m[k]
	if !ok {
		return nil, false
	}
	cp := st
	return &cp, true
}

func (f *fakeBacking) Store(k Key, st *core.Stats) {
	f.stores.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[k] = *st
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	pool := NewPool(4)
	var runs atomic.Uint64
	const callers = 16
	var wg sync.WaitGroup
	stats := make([]*core.Stats, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Do(testKey("mcf"), Job{Pool: pool, Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
				runs.Add(1)
				return &core.Stats{RetiredInsts: 42, Cycles: 7}, core.Evidence{}, nil
			}})
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if stats[i] != stats[0] {
			t.Fatalf("caller %d got a different pointer: results must be shared", i)
		}
	}
	cn := c.Counts()
	if cn.Computed != 1 || cn.Misses != 1 || cn.Hits != callers-1 {
		t.Fatalf("counts = %+v, want 1 computed, 1 miss, %d hits", cn, callers-1)
	}
}

func TestCacheErrorSharedNotStored(t *testing.T) {
	c := NewCache()
	b := newFakeBacking()
	c.SetBacking(b)
	boom := errors.New("boom")
	job := Job{Pool: NewPool(1), Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		return nil, core.Evidence{}, boom
	}}
	if _, err := c.Do(testKey("gcc"), job); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := c.Do(testKey("gcc"), job); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want cached boom", err)
	}
	if got := b.stores.Load(); got != 0 {
		t.Fatalf("failed computation was written to the backing store (%d stores)", got)
	}
}

func TestCacheBackingStoreHit(t *testing.T) {
	b := newFakeBacking()
	pool := NewPool(2)
	want := &core.Stats{RetiredInsts: 99, Cycles: 3}

	c1 := NewCache()
	c1.SetBacking(b)
	var runs atomic.Uint64
	run := func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		runs.Add(1)
		return want.Clone(), core.Evidence{}, nil
	}
	if _, err := c1.Do(testKey("mcf"), Job{Pool: pool, Run: run}); err != nil {
		t.Fatal(err)
	}
	if b.stores.Load() != 1 {
		t.Fatalf("stores = %d, want write-through of the computed result", b.stores.Load())
	}

	// A fresh cache over the same backing (a restarted process) serves
	// the key from the store without recomputing.
	c2 := NewCache()
	c2.SetBacking(b)
	st, err := c2.Do(testKey("mcf"), Job{Pool: pool, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if *st != *want {
		t.Fatalf("store-served stats = %+v, want %+v", st, want)
	}
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times across both caches, want 1", runs.Load())
	}
	cn := c2.Counts()
	if cn.StoreHits != 1 || cn.Computed != 0 {
		t.Fatalf("fresh-cache counts = %+v, want 1 store hit, 0 computed", cn)
	}
}

func TestCacheFrozenGuard(t *testing.T) {
	c := NewCache()
	job := Job{Pool: NewPool(1), Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		return &core.Stats{RetiredInsts: 5}, core.Evidence{}, nil
	}}
	st, err := c.Do(testKey("vpr"), job)
	if err != nil {
		t.Fatal(err)
	}
	st.RetiredInsts++ // the forbidden mutation
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mutated cached Stats did not panic on the next hit")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "frozen") || !strings.Contains(msg, "vpr") {
			t.Fatalf("panic %v should name the frozen contract and the offending key", r)
		}
	}()
	c.Do(testKey("vpr"), job)
}

func TestCacheReset(t *testing.T) {
	c := NewCache()
	var runs atomic.Uint64
	job := Job{Pool: NewPool(1), Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		runs.Add(1)
		return &core.Stats{}, core.Evidence{}, nil
	}}
	c.Do(testKey("gap"), job)
	c.Reset()
	if cn := c.Counts(); cn != (Counts{}) {
		t.Fatalf("counts after Reset = %+v, want zero", cn)
	}
	c.Do(testKey("gap"), job)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want recompute after Reset", runs.Load())
	}
}

// TestCacheSharesSimulation pins sharing below the request map: requests
// with different keys but one simulation key run one simulation, each
// publishes it and writes it through under its own key, a store-answered
// request never evaluates its simulation key, and Reset forgets the
// simulation too. Both requests read the simulation's host seconds, and
// reading them while requests still wait on the run is race-free.
func TestCacheSharesSimulation(t *testing.T) {
	c := NewCache()
	b := newFakeBacking()
	c.SetBacking(b)
	var runs, simKeys atomic.Uint64
	sim := testKey("eon")
	job := Job{
		Pool:   NewPool(2),
		SimKey: func() (Key, error) { simKeys.Add(1); return sim, nil },
		Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
			runs.Add(1)
			time.Sleep(time.Millisecond)
			return &core.Stats{RetiredInsts: 5, Cycles: 9}, core.Evidence{}, nil
		},
	}
	dmp, dhp := sim, sim
	dmp.Cfg, dhp.Cfg = core.DMPConfig().Canonical(), core.DHPConfig().Canonical()
	const callers = 8
	var wg sync.WaitGroup
	var reading atomic.Bool
	reading.Store(true)
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for reading.Load() {
			c.Seconds(dmp)
			c.Seconds(dhp)
		}
	}()
	stats := make([]*core.Stats, 2*callers)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := dmp
			if i%2 == 1 {
				k = dhp
			}
			st, err := c.Do(k, job)
			if err != nil {
				t.Error(err)
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	reading.Store(false)
	<-readers
	if runs.Load() != 1 {
		t.Fatalf("simulation ran %d times, want 1", runs.Load())
	}
	if a, b := c.Seconds(dmp), c.Seconds(dhp); a <= 0 || a != b {
		t.Fatalf("Seconds = %g and %g, want one positive value for the shared run", a, b)
	}
	for i := range stats {
		if stats[i] != stats[0] {
			t.Fatalf("request %d got a different pointer: the simulation must be shared", i)
		}
	}
	if cn := c.Counts(); cn.Misses != 2 || cn.Computed != 1 || cn.Shared != 1 || cn.Hits != 2*callers-2 {
		t.Fatalf("counts = %+v, want 2 misses, 1 computed, 1 shared, %d hits", cn, 2*callers-2)
	}
	if b.stores.Load() != 2 {
		t.Fatalf("stores = %d, want one write-through per request key", b.stores.Load())
	}

	// A restart answers each request from its own stored object.
	c2 := NewCache()
	c2.SetBacking(b)
	simKeys.Store(0)
	for _, k := range []Key{dmp, dhp} {
		if _, err := c2.Do(k, job); err != nil {
			t.Fatal(err)
		}
	}
	if cn := c2.Counts(); cn.StoreHits != 2 || cn.Computed != 0 || cn.Shared != 0 || simKeys.Load() != 0 {
		t.Fatalf("restart counts = %+v with %d simulation keys evaluated, want 2 store hits and none", cn, simKeys.Load())
	}
	if s := c2.Seconds(dmp); s != 0 {
		t.Fatalf("Seconds of a store hit = %g, want 0", s)
	}

	// Reset forgets simulations as well as requests.
	c.SetBacking(nil)
	c.Reset()
	if _, err := c.Do(dhp, job); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("simulation ran %d times, want a rerun after Reset", runs.Load())
	}

	// A simulation key that cannot be computed fails the request, and the
	// error is memoized like a failed run.
	boom := errors.New("no program")
	bad := Job{Pool: NewPool(1), SimKey: func() (Key, error) { return Key{}, boom }, Run: job.Run}
	for i := 0; i < 2; i++ {
		if _, err := c.Do(testKey("bogus"), bad); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the simulation key's error", err)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("a request without a simulation key ran a simulation")
	}
}

func TestPoolBounds(t *testing.T) {
	p := NewPool(2)
	p.Acquire()
	p.Acquire()
	select {
	case p.Chan() <- struct{}{}: // a sampled run's non-blocking take
		t.Fatal("took a third slot from a full two-slot pool")
	default:
	}
	p.Release()
	p.Release()
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", p.Cap())
	}
}

func TestAdmitterRoundRobinFairness(t *testing.T) {
	a := NewAdmitter(AdmitOptions{MaxConcurrent: 1, MaxQueuedPerClient: 16, MaxQueuedTotal: 64})
	defer a.Stop()

	// Hold the single slot with a gate job so the queues build up
	// deterministically, then release and observe dispatch order.
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := a.Submit("warm", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	record := func(tag string) func() {
		return func() {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Client A floods 6 requests before B submits 2: round-robin must
	// interleave B's work instead of running it last.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		if err := a.Submit("a", func() { record("a")(); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		if err := a.Submit("b", func() { record("b")(); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	go func() { wg.Wait(); close(done) }()
	close(gate)
	<-done

	got := strings.Join(order, "")
	// Strict alternation while both queues are non-empty: a b a b, then
	// the rest of a's backlog.
	if want := "ababaaaa"; got != want {
		t.Fatalf("dispatch order %q, want round-robin %q", got, want)
	}
}

func TestAdmitterShedsOnOverload(t *testing.T) {
	a := NewAdmitter(AdmitOptions{MaxConcurrent: 1, MaxQueuedPerClient: 2, MaxQueuedTotal: 3})
	defer a.Stop()
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := a.Submit("x", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	// x may queue two more; the third is shed by the per-client bound.
	for i := 0; i < 2; i++ {
		if err := a.Submit("x", func() {}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := a.Submit("x", func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("per-client overflow: err = %v, want ErrOverloaded", err)
	}
	// One more from y fills MaxQueuedTotal; a second y is shed by the
	// total bound even though y's own queue has room.
	if err := a.Submit("y", func() {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit("y", func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("total overflow: err = %v, want ErrOverloaded", err)
	}
	if ra := a.RetryAfter(); ra <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", ra)
	}
	close(gate)
}

func TestAdmitterStopRefusesAndDrains(t *testing.T) {
	a := NewAdmitter(AdmitOptions{MaxConcurrent: 2})
	var ran atomic.Uint64
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Submit(fmt.Sprintf("c%d", i%3), func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	a.Stop()
	if got := ran.Load(); got != n {
		t.Fatalf("Stop drained %d of %d admitted jobs", got, n)
	}
	if err := a.Submit("late", func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit after Stop: err = %v, want ErrOverloaded", err)
	}
	a.Stop() // idempotent
}

// familyKeys returns request keys for bench under basic DMP, DHP and
// enhanced DMP: three simulation keys of one family (core.Config.Family).
func familyKeys(bench string) (dmp, dhp, enh Key) {
	dmp, dhp, enh = testKey(bench), testKey(bench), testKey(bench)
	dmp.Cfg, dhp.Cfg, enh.Cfg = core.DMPConfig().Canonical(), core.DHPConfig().Canonical(), core.EnhancedDMPConfig().Canonical()
	return dmp, dhp, enh
}

// TestCacheSharesOnEvidence pins sharing on run-time evidence with fake
// evidence: a finished run answers a request of its family whose knobs
// the evidence shows unexercised, and no other; a request waiting on a
// running simulation of its family holds no worker slot; once the
// running simulation reports a knob the two differ in as exercised, the
// request starts beside it instead of waiting for it to finish; a failed
// run answers only its own simulation key and leaves the family usable;
// and a panicking Run releases the requests waiting on it.
func TestCacheSharesOnEvidence(t *testing.T) {
	c := NewCache()
	pool := NewPool(2)
	unexercised := core.Evidence{Recorded: true}
	cfm := unexercised
	cfm.MultipleCFM = true
	var runs atomic.Uint64
	started, report, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	blocking := Job{Pool: pool, Run: func(_ *telemetry.Span, progress func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		runs.Add(1)
		close(started)
		<-report
		progress(core.Evidence{MultipleCFM: true})
		<-release
		return &core.Stats{Cycles: 3}, cfm, nil
	}}
	other := Job{Pool: pool, Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		return &core.Stats{Cycles: 5}, core.Evidence{}, nil
	}}
	dmp, dhp, enh := familyKeys("gap")
	evidenceShared := mEvidenceShared.Value()

	first := make(chan *core.Stats)
	go func() {
		st, _ := c.Do(dmp, blocking)
		first <- st
	}()
	<-started
	// The DHP request differs in the mode only, which the run may still
	// leave unexercised; enhanced DMP also turns on MultipleCFM.
	waiter, beside := make(chan *core.Stats), make(chan *core.Stats)
	go func() {
		st, _ := c.Do(dhp, blocking)
		waiter <- st
	}()
	go func() {
		st, _ := c.Do(enh, other)
		beside <- st
	}()
	for c.Counts().Misses < 3 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if held := len(pool.Chan()); held != 1 {
		t.Fatalf("%d slots held while one request simulates and two wait on it, want 1", held)
	}
	select {
	case <-beside:
		t.Fatal("a request ran before the running simulation of its family excluded it")
	default:
	}
	close(report)
	select {
	case st := <-beside:
		if st.Cycles != 5 {
			t.Fatalf("enhanced DMP got %v, want its own run", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a request the running simulation excludes still waits for it")
	}
	select {
	case <-waiter:
		t.Fatal("the DHP request did not wait for the run that may answer it")
	default:
	}
	close(release)
	a, b := <-first, <-waiter
	if a != b || runs.Load() != 1 {
		t.Fatalf("DHP request got %p after %d runs, want the DMP run's %p from one run", b, runs.Load(), a)
	}
	if got := mEvidenceShared.Value() - evidenceShared; got != 1 {
		t.Fatalf("dmp_sched_evidence_shared_total rose by %d, want 1", got)
	}
	if cn := c.Counts(); cn.Computed != 2 || cn.Shared != 1 || cn.Misses != 3 {
		t.Fatalf("counts = %+v, want 2 computed, 1 shared, 3 misses", cn)
	}

	// A failed run answers only its own simulation key, with its error.
	boom := errors.New("boom")
	dmp, dhp, _ = familyKeys("twolf")
	failing := Job{Pool: pool, Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		runs.Add(1)
		return nil, unexercised, boom
	}}
	if _, err := c.Do(dmp, failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	alias := dmp
	alias.Cfg.KeepAlternateGHR = true
	failing.SimKey = func() (Key, error) { return dmp, nil }
	if _, err := c.Do(alias, failing); !errors.Is(err, boom) {
		t.Fatalf("a request of the failed simulation key got %v, want its error", err)
	}
	if st, err := c.Do(dhp, other); err != nil || st.Cycles != 5 {
		t.Fatalf("after a failed run its family answered %v, %v; want a run of its own", st, err)
	}
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want the failure run once", runs.Load())
	}

	// A panicking Run releases the requests waiting on it.
	dmp, dhp, _ = familyKeys("mesa")
	started, release = make(chan struct{}), make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(dmp, Job{Pool: pool, Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
			close(started)
			<-release
			panic("simulator bug")
		}})
	}()
	<-started
	misses := c.Counts().Misses
	done := make(chan error)
	go func() {
		_, err := c.Do(dhp, other)
		done <- err
	}()
	for c.Counts().Misses == misses {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	if <-panicked == nil {
		t.Fatal("Run's panic did not reach the caller")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a panicking Run left a request of its family waiting")
	}
	if held := len(pool.Chan()); held != 0 {
		t.Fatalf("%d slots still held", held)
	}
}

// TestCachePanicPoisonsNoKey runs a job that panics on its first call.
// The panic reaches the call that ran it; a request that waited on that
// call and a later request for the same key both get Stats from a fresh
// run instead of the failed entry's nil.
func TestCachePanicPoisonsNoKey(t *testing.T) {
	c := NewCache()
	key := testKey("gzip")
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	job := Job{Pool: NewPool(2), Run: func(*telemetry.Span, func(core.Evidence)) (*core.Stats, core.Evidence, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			panic("simulator bug")
		}
		return &core.Stats{Cycles: 9}, core.Evidence{}, nil
	}}
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(key, job)
	}()
	<-started
	waited := make(chan *core.Stats)
	go func() {
		st, err := c.Do(key, job)
		if err != nil {
			t.Error(err)
		}
		waited <- st
	}()
	// Both calls are inside the entry's sync.Once once the waiter blocks
	// on the running call.
	buf := make([]byte, 1<<20)
	for strings.Count(string(buf[:runtime.Stack(buf, true)]), "sync.(*Once).doSlow") < 2 {
		runtime.Gosched()
	}
	close(release)
	if <-panicked == nil {
		t.Fatal("Run's panic did not reach the caller")
	}
	if st := <-waited; st == nil || st.Cycles != 9 {
		t.Fatalf("the waiter got %v, want a fresh run's Stats", st)
	}
	st, err := c.Do(key, job)
	if err != nil || st == nil || st.Cycles != 9 {
		t.Fatalf("a later request got %v, %v; want a fresh run's Stats", st, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("Run called %d times, want the panicking call and one more", n)
	}
}
