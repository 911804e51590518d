package exp

import (
	"sync"

	"dmp/internal/prog"
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

// resetProgramCache drops every cached program (tests only).
func resetProgramCache() {
	progCache.Range(func(k, _ any) bool {
		progCache.Delete(k)
		return true
	})
}
