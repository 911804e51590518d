package exp

import (
	"sync"
	"sync/atomic"

	"dmp/internal/prog"
	"dmp/internal/sched"
	"dmp/internal/store"
)

// Annotated programs are memoized per (benchmark, scale): every machine
// configuration runs the one program, whose marks include loop diverge
// branches (a machine without EnableLoopDiverge ignores those). The
// workload build plus the training profile.Run dominates experiment
// wall-clock, and figures.go runs the same benchmark under 20+ machine
// configurations, so building each annotated program once eliminates
// nearly all of that work. (Across processes, the daemon's stored
// diverge tables stand in for the profile: see annotations.go.)
//
// Sharing one *prog.Program across concurrently running Machines is safe
// because a Program is read-only once buildAnnotated returns:
//
//   - profile.Run trains on the *training* build and mutates only it; the
//     published reference build receives the annotations (profiled, or a
//     freshly decoded stored table) before the cache entry is published
//     (the sync.Once provides the happens-before edge).
//   - core.New copies p.Data into the machine's own emu.Memory, and
//     emu.New (the fetch oracle) does the same; stores never write
//     through to the Program.
//   - The core reads only p.Code (via At), p.Diverge (via DivergeAt),
//     p.Entry and p.StackBase. Episode setup slices a Diverge's CFMs but
//     never appends to or writes through it.
//
// Anything that would mutate a Program after annotation (ClearDiverge,
// SetWord, MarkDiverge with new data) must build a fresh one instead —
// see TestCachedAnnotatedMatchesFresh, which pins the cached/fresh
// equivalence.

// progKey identifies one cached annotated program.
type progKey struct {
	bench string
	scale int
}

// progEntry is a once-built cache slot; concurrent requesters for the
// same key block on the Once instead of profiling in parallel. The
// program's workload hash is computed on its own Once, on first request:
// only the persistent store keys on it, so CLI runs never pay for it.
type progEntry struct {
	once sync.Once
	p    *prog.Program
	err  error

	hashOnce sync.Once
	hash     string
}

var progCache sync.Map // progKey -> *progEntry

// programEntry returns the key's cache slot with its program built.
// Errors are cached too: a benchmark that fails to build fails
// identically for every configuration that asks.
func programEntry(bench string, scale int) *progEntry {
	v, _ := progCache.LoadOrStore(progKey{bench, scale}, &progEntry{})
	e := v.(*progEntry)
	e.once.Do(func() { e.p, e.err = buildAnnotated(bench, scale) })
	return e
}

// WorkloadHash returns prog.Program.Hash of bench's memoized annotated
// program, hashing it once per cached program. The dmpserve store folds
// it into every persistent key, pinning results to the program bytes
// they were measured on.
func WorkloadHash(bench string, scale int) (string, error) {
	e := programEntry(bench, scale)
	if e.err != nil {
		return "", e.err
	}
	e.hashOnce.Do(func() { e.hash = e.p.Hash() })
	return e.hash, nil
}

// stored is the store SetStore installed, or nil.
var stored atomic.Pointer[store.Store]

// SetStore installs st, the dmpserve daemon's store, behind the
// process-wide result cache and behind buildAnnotated's diverge tables;
// nil removes it from both. Programs and results already in memory are
// unaffected, and Reset leaves it installed. Safe to call concurrently
// with program builds and simulations.
func SetStore(st *store.Store) {
	stored.Store(st)
	if st == nil {
		simCache.SetBacking(nil)
		return
	}
	simCache.SetBacking(storeBacking{st})
}

// storeBacking adapts the store to the result cache's sched.Backing.
// The translation from a sched.Key to a store.Meta adds the one fact the
// scheduler does not track: the workload hash, a digest of the exact
// annotated program bytes the result was measured on (WorkloadHash).
// Folding it into the persistent key means a store survives
// workload-generator changes safely — results for the old program bytes
// simply stop being addressed, instead of being served against the new
// ones.
type storeBacking struct{ st *store.Store }

func (b storeBacking) meta(k sched.Key) (store.Meta, bool) {
	h, err := WorkloadHash(k.Bench, k.Scale)
	if err != nil {
		// No workload identity, no persistent key: the scheduler will
		// compute (and fail with the real error) instead.
		return store.Meta{}, false
	}
	// Every simulation the scheduler runs is checked, so Check is always
	// true, which keeps the digests of stores written when it was a knob.
	return store.Meta{Bench: k.Bench, Scale: k.Scale, Check: true, Config: k.Cfg, WorkloadHash: h}, true
}

func (b storeBacking) Load(k sched.Key) (sched.Result, bool) {
	m, ok := b.meta(k)
	if !ok {
		return sched.Result{}, false
	}
	if k.Cfg.SampleMode {
		r, ok := b.st.LoadSampled(m)
		if !ok {
			return sched.Result{}, false
		}
		return sched.Result{Stats: r.Extrapolated, Sample: r}, true
	}
	st, ok := b.st.Load(m)
	return sched.Result{Stats: st}, ok
}

func (b storeBacking) Store(k sched.Key, r sched.Result) {
	m, ok := b.meta(k)
	if !ok {
		return
	}
	// A failed write degrades to an unpersisted (but still correct)
	// result; the in-memory entry serves this process either way.
	if r.Sample != nil {
		b.st.PutSampled(m, r.Sample)
	} else {
		b.st.Put(m, r.Stats)
	}
}

// resetProgramCache drops every cached program (tests only).
func resetProgramCache() {
	progCache.Range(func(k, _ any) bool {
		progCache.Delete(k)
		return true
	})
}
