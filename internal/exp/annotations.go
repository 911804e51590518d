package exp

import (
	"dmp/internal/lint"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
)

// The training profile is the cost of building an annotated program:
// about 95% of it at scale 3. With a store installed (SetStore), every
// diverge table profiled is written to the store's annotation objects,
// so a restarted daemon builds its programs from stored tables and does
// not profile them again.
//
// A stored table is trusted only after lint.Annotations passes it on the
// reference program with no diagnostic at all, the bar every table the
// profiler emits meets (CI runs dmplint -werror over them). A miss, an
// object the store rejects on read, or a table lint rejects falls back
// to profiling, and the fresh table is written back, so a bad object
// heals.

var (
	mProfileRuns = telemetry.NewCounter("dmp_exp_profile_runs_total",
		"training profiles run to annotate a program (stored diverge tables did not answer)")
	mAnnotationRejects = telemetry.NewCounter("dmp_exp_annotation_rejects_total",
		"stored diverge tables found but not used: corrupt, stale or lint-rejected")
)

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
