package exp

import (
	"sync"

	"dmp/internal/core"
	"dmp/internal/prog"
)

// Annotated programs are memoized per (benchmark, scale, loop-marking):
// the workload build plus the training profile.Run dominates experiment
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
	loops bool // profile.Options.IncludeLoops (Section 2.7.4)
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
func programEntry(bench string, scale int, loops bool) *progEntry {
	v, _ := progCache.LoadOrStore(progKey{bench, scale, loops}, &progEntry{})
	e := v.(*progEntry)
	e.once.Do(func() { e.p, e.err = buildAnnotated(bench, scale, loops) })
	return e
}

// programFor returns the slot of the program bench runs on under cfg. It
// is the one place that picks the annotation variant: the loop-marked
// program exactly when cfg predicates loop diverge branches (Section
// 2.7.4). Canonical folds that bit away for modes that never read
// annotations, so they share the plain program.
func programFor(bench string, scale int, cfg core.Config) *progEntry {
	return programEntry(bench, scale, cfg.Canonical().EnableLoopDiverge)
}

// WorkloadHash returns prog.Program.Hash of the memoized program bench
// runs on under cfg (see programFor), hashing it once per cached
// program. The dmpserve store folds it into every persistent key,
// pinning results to the program bytes they were measured on.
func WorkloadHash(bench string, scale int, cfg core.Config) (string, error) {
	e := programFor(bench, scale, cfg)
	if e.err != nil {
		return "", e.err
	}
	e.hashOnce.Do(func() { e.hash = e.p.Hash() })
	return e.hash, nil
}

// resetProgramCache drops every cached program (tests only).
func resetProgramCache() {
	progCache.Range(func(k, _ any) bool {
		progCache.Delete(k)
		return true
	})
}
