package lint_test

import (
	"fmt"
	"testing"

	"dmp/internal/exp"
	"dmp/internal/lint"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

// TestWorkloadsLintClean is the calibration gate: every benchmark's
// annotated program — all 15 workloads, both scales the experiments use,
// as a machine without loop diverge reads it (its loop marks dropped)
// and whole — must be completely diagnostic-clean, warnings included.
// The lint checks are tuned so that legitimate profiler output never
// trips them; any finding here is either a profiler regression or an
// over-eager check, and both need fixing before merge.
func TestWorkloadsLintClean(t *testing.T) {
	scales := []int{1, 3}
	if testing.Short() {
		scales = []int{1}
	}
	for _, w := range workload.All() {
		for _, scale := range scales {
			for _, loops := range []bool{false, true} {
				name := fmt.Sprintf("%s/scale%d/loops=%v", w.Name, scale, loops)
				t.Run(name, func(t *testing.T) {
					p, err := exp.Annotated(w.Name, scale)
					if err != nil {
						t.Fatalf("annotate: %v", err)
					}
					if !loops {
						plain := *p
						plain.Diverge = map[uint64]*prog.Diverge{}
						for pc, d := range p.Diverge {
							if !d.Loop {
								plain.Diverge[pc] = d
							}
						}
						p = &plain
					}
					if ds := lint.Check(p, lint.Options{}); len(ds) != 0 {
						t.Errorf("not lint-clean:\n%s", ds)
					}
				})
			}
		}
	}
}

// TestDistWithinMatchesReference checks the lint's bounded BFS against
// its map-based reference on every branch of the fifteen benchmarks at
// scale 1: equal distances from each branch target and fall-through.
func TestDistWithinMatchesReference(t *testing.T) {
	for _, w := range workload.All() {
		p, err := exp.Annotated(w.Name, 1)
		if err != nil {
			t.Fatalf("%s: annotate: %v", w.Name, err)
		}
		msg, runs := lint.DistWithinMismatch(p)
		if msg != "" {
			t.Errorf("%s: %s", w.Name, msg)
		}
		if runs == 0 {
			t.Errorf("%s: no branch to compare from", w.Name)
		}
	}
}
