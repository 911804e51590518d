package exp

import (
	"sync"

	"dmp/internal/prog"
)

// Annotated programs are memoized per (benchmark, scale, loop-marking):
// the workload build plus the training profile.Run dominates experiment
// wall-clock, and figures.go runs the same benchmark under 20+ machine
// configurations, so building each annotated program once eliminates
// nearly all of that work.
//
// Sharing one *prog.Program across concurrently running Machines is safe
// because a Program is read-only once buildAnnotated returns:
//
//   - profile.Run trains on the *training* build and mutates only it; the
//     published reference build receives the annotations via MarkDiverge
//     before the cache entry is published (the sync.Once provides the
//     happens-before edge).
//   - core.New copies p.Data into the machine's own emu.Memory, and
//     emu.New (the golden checker and the fetch oracle) does the same;
//     stores never write through to the Program.
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

// annotatedCached returns the memoized annotated program for the key,
// building it on first use.
func annotatedCached(bench string, scale int, loops bool) (*prog.Program, error) {
	e := programEntry(bench, scale, loops)
	return e.p, e.err
}

// WorkloadHash returns prog.Program.Hash of one memoized annotation
// variant — the program Annotated (or, with loops, AnnotatedLoops)
// returns — hashing it once per cached program. The dmpserve store folds
// it into every persistent key, pinning results to the program bytes
// they were measured on.
func WorkloadHash(bench string, scale int, loops bool) (string, error) {
	e := programEntry(bench, scale, loops)
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
