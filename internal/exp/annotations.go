package exp

import (
	"sync/atomic"

	"dmp/internal/lint"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
)

// The training profile is the cost of building an annotated program:
// about 95% of it at scale 3. A daemon persists every diverge table it
// profiles in an AnnotationBacking (the result store's annotation
// objects), so a restarted daemon builds its programs from stored
// tables and does not profile them again.
//
// A stored table is trusted only after lint.Annotations passes it on the
// reference program with no diagnostic at all, the bar every table the
// profiler emits meets (CI runs dmplint -werror over them). A miss, an
// object the backing rejects, or a table lint rejects falls back to
// profiling, and the fresh table is written back, so a bad object heals.

var (
	mProfileRuns = telemetry.NewCounter("dmp_exp_profile_runs_total",
		"training profiles run to annotate a program (stored diverge tables did not answer)")
	mAnnotationRejects = telemetry.NewCounter("dmp_exp_annotation_rejects_total",
		"stored diverge tables found but not used: corrupt, stale or lint-rejected")
)

// AnnotationBacking persists the training profile's diverge tables.
// *store.Store implements it; the dmpserve daemon installs its store.
type AnnotationBacking interface {
	// Annotations returns the table stored for the training program
	// with hash trainHash (prog.Program.Hash, unannotated) profiled under
	// profile.Options.Key profiler. A plain miss is an error satisfying
	// errors.Is(err, fs.ErrNotExist); any other error is an unusable
	// object.
	Annotations(trainHash, profiler string) (map[uint64]*prog.Diverge, error)
	// PutAnnotations stores the diverge table of train, the training
	// program profiled for (trainHash, profiler).
	PutAnnotations(trainHash, profiler string, train *prog.Program) error
}

type annotationBox struct{ b AnnotationBacking }

var annotations atomic.Pointer[annotationBox]

// SetAnnotationBacking installs (or with nil removes) the persistent
// diverge-table store that buildAnnotated consults before profiling.
// Programs already built are unaffected, and Reset leaves it installed.
// Safe to call concurrently with program builds.
func SetAnnotationBacking(b AnnotationBacking) {
	if b == nil {
		annotations.Store(nil)
		return
	}
	annotations.Store(&annotationBox{b})
}

func annotationBacking() AnnotationBacking {
	if box := annotations.Load(); box != nil {
		return box.b
	}
	return nil
}

// markChecked marks a stored table on the unannotated reference program
// p and keeps it only if lint finds nothing to report; otherwise p is
// left unannotated. The table is attached directly rather than through
// MarkDiverge, which panics on a PC that is not a branch: lint reports
// that as diverge-not-branch instead.
func markChecked(p *prog.Program, table map[uint64]*prog.Diverge, popts profile.Options) bool {
	p.Diverge = table
	if len(lint.Annotations(p, prog.BuildCFG(p), lint.Options{MaxDist: popts.MaxDist})) == 0 {
		return true
	}
	p.ClearDiverge()
	return false
}
