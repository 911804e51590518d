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
//   - EarlyExit: at every early-exit test of the fetch loop, the
//     alternate path's length so far against the episode's threshold.
//     The default threshold is folded away when EarlyExit is off, so the
//     record is threshold-free: AltLongest for regions without a
//     threshold of their own, OwnExit for regions with one.
//   - MergeTableSize: the merge table's peak occupancy, and whether an
//     allocation ever found it full (the only read of its size).
type Evidence struct {
	// Recorded is set on the evidence of a finished run from the program
	// entry. Without it the run answers only its own configuration.
	Recorded bool

	DHPFilter       bool
	MultipleDiverge bool
	MultipleCFM     bool

	// AltLongest is the longest alternate path fetched at an early-exit
	// test in an episode whose region has no threshold of its own: early
	// exit at default threshold T fires on this trajectory iff
	// AltLongest >= T. OwnExit reports an early-exit test, in an episode
	// whose region has a threshold of its own, that found the path at
	// that threshold: early exit fires there whatever T is.
	AltLongest int
	OwnExit    bool

	// MergePeak is the merge table's peak occupancy; MergeEvicted reports
	// an allocation that found the table full and evicted.
	MergePeak    int
	MergeEvicted bool
}

// Family returns the configuration with the knobs Evidence vouches for
// cleared: DHP becomes DMP, and MultipleCFM, EarlyExit, EarlyExitDefault,
// MultipleDiverge and MergeTableSize take their zero values. Sampled
// configurations and modes other than DMP and DHP are their own family.
// c must be canonical.
func (c Config) Family() Config {
	if c.SampleMode || (c.Mode != ModeDMP && c.Mode != ModeDHP) {
		return c
	}
	c.Mode = ModeDMP
	c.MultipleCFM = false
	c.EarlyExit = false
	c.EarlyExitDefault = 0
	c.MultipleDiverge = false
	c.MergeTableSize = 0
	return c
}

// exits reports whether early exit fires anywhere on the recorded
// trajectory under EarlyExit on with default threshold T.
func (e *Evidence) exits(on bool, T int) bool {
	return on && (e.AltLongest >= T || e.OwnExit)
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
		ran.MultipleDiverge != req.MultipleDiverge && e.MultipleDiverge:
		return false
	case (ran.EarlyExit != req.EarlyExit || ran.EarlyExitDefault != req.EarlyExitDefault) &&
		(e.exits(ran.EarlyExit, ran.EarlyExitDefault) || e.exits(req.EarlyExit, req.EarlyExitDefault)):
		return false
	case ran.MergeTableSize != req.MergeTableSize && (e.MergeEvicted || req.MergeTableSize < e.MergePeak):
		return false
	}
	return true
}

// Describe names the knobs the run of cfg exercised, those whose flip
// could have changed a decision on its trajectory, followed by the
// threshold-free early-exit and merge-table records. The early-exit knob
// is judged at cfg's own EarlyExitDefault, set even when EarlyExit is off.
func (e *Evidence) Describe(cfg Config) string {
	var knobs []string
	for _, k := range []struct {
		name string
		on   bool
	}{
		{"dhp-filter", e.DHPFilter},
		{"multiple-cfm", e.MultipleCFM},
		{"early-exit", e.exits(true, cfg.EarlyExitDefault)},
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
	return fmt.Sprintf("%s (longest alternate path %d, own threshold reached %v, merge-table peak %d)",
		strings.Join(knobs, " "), e.AltLongest, e.OwnExit, e.MergePeak)
}

// Excludes reports whether e, recorded so far by a run of ran that may
// still be going, already shows that the finished run will not answer
// req. A run's records only ever grow more exercised (the flags get set,
// AltLongest and MergePeak grow), and Answers is monotone in them, so
// what the records so far rule out stays ruled out.
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

// noteAltTest records the alternate path's length at an early-exit test
// (Evidence.AltLongest and OwnExit).
func (m *Machine) noteAltTest(ep *episode) {
	if ep.ownExit {
		m.ev.OwnExit = m.ev.OwnExit || ep.altFetched >= ep.exitThreshold
	} else {
		m.ev.AltLongest = max(m.ev.AltLongest, ep.altFetched)
	}
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
