package core

import (
	"testing"

	"dmp/internal/workload"
)

// TestOracleLockstepHealthy runs every workload under enhanced DMP and
// checks the fetch oracle ends the run in lockstep with every pause
// matched by a resume. A stuck oracle silently degrades wrong-path
// classification and perfect-confidence accuracy (this regression caught
// the missing post-exit journal).
func TestOracleLockstepHealthy(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m, err := New(annotatedRef(t, w, 1), EnhancedDMPConfig())
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkStats(t, m, st)
			if !st.HaltRetired {
				t.Fatal("did not halt")
			}
			if st.OraclePauses > st.OracleResumes+1 {
				t.Errorf("oracle pauses %d >> resumes %d (stuck oracle)", st.OraclePauses, st.OracleResumes)
			}
			// Healthy end states: halted in fetch lockstep, or halted via
			// the retirement catch-up with its position at the retirement
			// frontier.
			if !m.oracle.em.Halted || m.oracle.em.Count != st.RetiredInsts {
				t.Errorf("oracle did not track the run to completion (onPath=%v halted=%v count=%d retired=%d pc=%d)",
					m.oracle.onPath, m.oracle.em.Halted, m.oracle.em.Count, st.RetiredInsts, m.oracle.em.PC)
			}
		})
	}
}
