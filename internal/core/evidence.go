package core

import (
	"fmt"
	"strings"
)

// Evidence records, for one exact DMP or DHP run, whether flipping each
// predication knob could ever have changed a decision on the run's own
// trajectory. Each predicate reads the trajectory and no knob (the merge
// record also notes whether the run's own table filled), so a run with a
// knob on and a run with it off record the same evidence for as long as
// their trajectories agree. Two configurations of one Family whose
// differences the evidence shows unexercised therefore run the same
// trajectory, bit for bit (Answers), and record equal evidence: "answers"
// is an equivalence relation, which is what lets sched.Cache share runs
// on it with an order-independent simulation count. The record lives
// beside Stats, never in them.
//
// The decision points and their predicates:
//
//   - DHPFilter: a low-confidence branch reached episode entry
//     (maybeEnterDP) with a region only DHP's simple-hammock filter
//     drops, while no episode was live or the live one was on its
//     predicted path: where DMP enters or converts and DHP does not.
//   - MultipleDiverge: a low-confidence branch with a region DMP admits
//     reached episode entry while the live episode was on its predicted
//     path (maybeEnterDP's conversion test, without the knob).
//   - MultipleCFM: the predicted path of an episode reached one of its
//     region's further CFM points (CFMs[1:]) before the first one
//     (enterEpisode keeps CFMs[:1] without the knob).
//   - EarlyExit: at an early-exit test of the fetch loop, an alternate
//     path reached its episode's threshold. Thresholds are the marks'
//     own (or a constant), never the configuration's, so the test reads
//     no knob.
//   - MergeTableSize: the merge table's peak occupancy, and whether an
//     allocation ever found it full (the only read of its size).
type Evidence struct {
	// Recorded is set on the evidence of a finished run from the program
	// entry. Without it the run answers only its own configuration.
	Recorded bool

	DHPFilter       bool
	MultipleDiverge bool
	MultipleCFM     bool

	// EarlyExit reports an alternate path that reached its episode's
	// threshold: early exit fires on this trajectory iff it is on.
	EarlyExit bool

	// MergePeak is the merge table's peak occupancy; MergeEvicted reports
	// an allocation that found the table full and evicted.
	MergePeak    int
	MergeEvicted bool
}

// Family returns the configuration with the knobs Evidence vouches for
// cleared: DHP becomes DMP, and MultipleCFM, EarlyExit, MultipleDiverge
// and MergeTableSize take their zero values. Sampled configurations and
// modes other than DMP and DHP are their own family. c must be
// canonical.
func (c Config) Family() Config {
	if c.SampleMode || (c.Mode != ModeDMP && c.Mode != ModeDHP) {
		return c
	}
	c.Mode = ModeDMP
	c.MultipleCFM = false
	c.EarlyExit = false
	c.MultipleDiverge = false
	c.MergeTableSize = 0
	return c
}

// Answers reports whether the run of ran that recorded e is, bit for
// bit, the run req would give: the two configurations are equal, or they
// share a Family and differ only in knobs e shows unexercised. ran and
// req are canonical configurations for the same program.
func (e *Evidence) Answers(ran, req Config) bool {
	if ran == req {
		return true
	}
	if !e.Recorded || ran.Family() != req.Family() {
		return false
	}
	switch {
	case ran.Mode != req.Mode && e.DHPFilter,
		ran.MultipleCFM != req.MultipleCFM && e.MultipleCFM,
		ran.EarlyExit != req.EarlyExit && e.EarlyExit,
		ran.MultipleDiverge != req.MultipleDiverge && e.MultipleDiverge:
		return false
	case ran.MergeTableSize != req.MergeTableSize && (e.MergeEvicted || req.MergeTableSize < e.MergePeak):
		return false
	}
	return true
}

// Describe names the knobs the run exercised, those whose flip could
// have changed a decision on its trajectory, followed by the merge
// table's peak occupancy.
func (e *Evidence) Describe() string {
	var knobs []string
	for _, k := range []struct {
		name string
		on   bool
	}{
		{"dhp-filter", e.DHPFilter},
		{"multiple-cfm", e.MultipleCFM},
		{"early-exit", e.EarlyExit},
		{"multiple-diverge", e.MultipleDiverge},
		{"merge-table-size", e.MergeEvicted},
	} {
		if k.on {
			knobs = append(knobs, k.name)
		}
	}
	if len(knobs) == 0 {
		knobs = []string{"none"}
	}
	return fmt.Sprintf("%s (merge-table peak %d)", strings.Join(knobs, " "), e.MergePeak)
}

// Excludes reports whether e, recorded so far by a run of ran that may
// still be going, already shows that the finished run will not answer
// req. A run's records only ever grow more exercised (the flags get set
// and MergePeak grows), and Answers is monotone in them, so what the
// records so far rule out stays ruled out.
func (e Evidence) Excludes(ran, req Config) bool {
	e.Recorded = true
	return !e.Answers(ran, req)
}

// Evidence returns the knob evidence the run has recorded so far.
// Recorded is set only once the run is finished and only if it started
// at the program entry (not from a checkpoint): until then the evidence
// answers only the run's own configuration, though Excludes may already
// read it.
func (m *Machine) Evidence() Evidence {
	ev := m.ev
	ev.Recorded = ev.Recorded && m.finished
	if m.merge != nil {
		ev.MergePeak = m.merge.Entries()
		ev.MergeEvicted = m.merge.Counts().Evictions > 0
	}
	return ev
}

// noteCFMTest records a predicted path reaching one of its region's
// further CFM points before the first (Evidence.MultipleCFM).
func (m *Machine) noteCFMTest(ep *episode, pc uint64) {
	if m.ev.MultipleCFM || ep.cfmChosen || pc == ep.cfms[0] {
		return
	}
	for _, c := range ep.moreCFMs {
		if c == pc {
			m.ev.MultipleCFM = true
			return
		}
	}
}
