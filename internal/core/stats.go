package core

import (
	"fmt"
	"math"
	"reflect"
)

// ModelVersion names the simulator's behaviour. Persisted results are
// keyed by it (store.Meta.Digest), so bump it with any change that can
// move the Stats some configuration produces: every stored result then
// reads as a miss and is simulated afresh, instead of being served
// stale. TestGoldenPinned (cmd/dmpexp) fails until it is bumped when the
// scale-1 golden moves.
const ModelVersion = 1

// Stats aggregates everything the paper's evaluation reports.
type Stats struct {
	Cycles uint64

	// Retired program instructions with TRUE (or no) predicate: the IPC
	// numerator (predicate-FALSE instructions and inserted uops do not
	// contribute, Section 3.1).
	RetiredInsts uint64
	// RetiredFalse counts retired predicate-FALSE program instructions.
	RetiredFalse uint64
	// RetiredSelects / RetiredMarkers count retired select-uops and
	// enter/exit/fork uops (the "extra uops" of Figure 12).
	RetiredSelects uint64
	RetiredMarkers uint64

	// Fetch-side counts (Figure 12 left, Figure 1).
	FetchedInsts   uint64 // program instructions fetched (incl. wrong path)
	FetchedWrongCD uint64 // wrong-path fetches, control-dependent
	FetchedWrongCI uint64 // wrong-path fetches, control-independent
	FetchedMarkers uint64 // inserted uops entering the pipe at fetch

	// Executed counts (Figure 12 right): every uop that issued.
	ExecutedInsts   uint64
	ExecutedSelects uint64
	ExecutedMarkers uint64

	// Branches (Table 3), counted at retirement of predicate-TRUE
	// conditional branches.
	RetiredBranches    uint64
	RetiredMispredicts uint64

	// Pipeline flushes due to branch mispredictions (Figure 11).
	Flushes uint64

	// Dynamic predication episodes by Table-1 exit case (Figures 8/10).
	ExitCases [7]uint64 // indexed by ExitCase; [0] = squashed episodes
	// Episodes converted back to normal branches.
	EarlyExits     uint64
	MDBConversions uint64
	Episodes       uint64

	// Confidence estimator quality: low-confidence diverge fetches that
	// were actually correct / incorrect.
	LowConfCorrect uint64
	LowConfWrong   uint64

	// Merge-point predictor (internal/merge; CFMSource dynamic/hybrid).
	// Hits/Misses count fetch-side lookups for low-confidence branches
	// with no usable annotation; Evictions/Trainings mirror the
	// predictor's own counters at end of run. MergeMispredicts counts
	// learned-CFM episodes abandoned by early exit (the alternate path
	// never reached the predicted merge point); DynCFMEpisodes counts
	// episodes entered from a predictor-supplied CFM.
	MergeHits        uint64
	MergeMisses      uint64
	MergeEvictions   uint64
	MergeTrainings   uint64
	MergeMispredicts uint64
	DynCFMEpisodes   uint64

	// Memory system.
	L1IMisses, L1DMisses, L2Misses uint64

	// Loads that had to wait on store predicates or unknown addresses.
	LoadStalls uint64

	// Oracle lockstep health: pauses (fetch left the correct path) and
	// resumes. A large gap means the oracle spent the run detached and
	// wrong-path classification degraded to control-dependent.
	OraclePauses, OracleResumes uint64

	// HaltRetired reports whether the program ran to completion.
	HaltRetired bool

	// FetchedUops counts every window entry the machine created (program
	// instructions, markers and select-uops, wrong path included): the
	// simulator's work, which experiment tables do not print.
	//
	// WallSeconds is always zero: host time is kept beside results
	// (sched.Cache.Seconds), never in them. It stays declared for the
	// store's schema digest and cmd/dmpbench's build until ModelVersion.
	FetchedUops uint64
	WallSeconds float64
}

// Clone returns an independent copy of s. Results shared through the
// experiment result cache are frozen; a caller that wants to mutate one
// (accumulate, rescale, zero a field) must work on a Clone.
func (s *Stats) Clone() *Stats {
	c := *s
	return &c
}

// Delta returns the field-wise difference s - prev for every counter:
// what happened between two snapshots of the same run. Counters are
// monotonic during a run, so each difference is well-defined; the
// interval sampler (internal/obs) builds its per-interval rows from
// this. HaltRetired is taken from s.
func (s *Stats) Delta(prev *Stats) Stats {
	d := zipCounters(s, prev, func(x, y uint64) uint64 { return x - y })
	d.HaltRetired = s.HaltRetired
	return d
}

// Add returns the field-wise sum s + o for every counter: the combined
// totals of two disjoint measurement windows (the sampling driver sums
// its detailed intervals this way before extrapolating). HaltRetired is
// OR-ed — the union of two windows ran to completion if either did.
func (s *Stats) Add(o *Stats) Stats {
	a := zipCounters(s, o, func(x, y uint64) uint64 { return x + y })
	a.HaltRetired = s.HaltRetired || o.HaltRetired
	return a
}

// Scale returns s with every counter multiplied by f (integer counters
// round half up): the extrapolation step of sampled simulation, where
// the summed detailed-interval counters are scaled by the ratio of total
// program instructions to sampled instructions. Ratios of scaled
// counters (IPC, misprediction rate, ...) equal the ratios of the
// unscaled sums, so derived metrics survive extrapolation exactly.
// HaltRetired copies.
func (s *Stats) Scale(f float64) Stats {
	c := zipCounters(s, s, func(x, _ uint64) uint64 { return uint64(math.Floor(float64(x)*f + 0.5)) })
	c.HaltRetired = s.HaltRetired
	return c
}

// zipCounters returns the Stats whose every uint64 counter, ExitCases
// elements included, is op of the same counter in a and b. It walks the
// struct, so a counter added to Stats is combined without being listed
// here; the non-counter fields are left zero for the caller.
func zipCounters(a, b *Stats, op func(x, y uint64) uint64) Stats {
	var out Stats
	vo, va, vb := reflect.ValueOf(&out).Elem(), reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < vo.NumField(); i++ {
		fo, fa, fb := vo.Field(i), va.Field(i), vb.Field(i)
		switch fo.Kind() {
		case reflect.Uint64:
			fo.SetUint(op(fa.Uint(), fb.Uint()))
		case reflect.Array:
			for j := 0; j < fo.Len(); j++ {
				fo.Index(j).SetUint(op(fa.Index(j).Uint(), fb.Index(j).Uint()))
			}
		}
	}
	return out
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RetiredInsts) / float64(s.Cycles)
}

// MispredictRate returns the conditional branch misprediction rate.
func (s *Stats) MispredictRate() float64 {
	if s.RetiredBranches == 0 {
		return 0
	}
	return float64(s.RetiredMispredicts) / float64(s.RetiredBranches)
}

// MPKI returns mispredictions per thousand retired instructions.
func (s *Stats) MPKI() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.RetiredMispredicts) / float64(s.RetiredInsts)
}

// WrongPathFrac returns the fraction of fetched program instructions that
// were on the wrong path (Figure 1's total height).
func (s *Stats) WrongPathFrac() float64 {
	if s.FetchedInsts == 0 {
		return 0
	}
	return float64(s.FetchedWrongCD+s.FetchedWrongCI) / float64(s.FetchedInsts)
}

// ExecutedTotal returns all issued uops, including wrong-path work that
// was later flushed.
func (s *Stats) ExecutedTotal() uint64 {
	return s.ExecutedInsts + s.ExecutedSelects + s.ExecutedMarkers
}

// CommittedWork returns the instructions the machine carried to
// retirement: program instructions (TRUE and FALSE predicates) plus the
// inserted select and marker uops. This is the paper's Figure-12
// "executed instructions" metric — dynamic predication raises it (FALSE
// paths and extra uops) even as flushed wrong-path work falls.
func (s *Stats) CommittedWork() uint64 {
	return s.RetiredInsts + s.RetiredFalse + s.RetiredSelects + s.RetiredMarkers
}

// round2 rounds to two decimals with halves away from zero. fmt's %.2f
// rounds halves to even, so e.g. a 0.125% misprediction rate (1 in 800)
// would print as "0.12" — the conventional half-up result is 0.13.
func round2(v float64) float64 {
	return math.Floor(v*100+0.5) / 100
}

func (s *Stats) String() string {
	return fmt.Sprintf(
		"cycles=%d retired=%d IPC=%.3f br=%d misp=%d (%.2f%%) flushes=%d fetched=%d (wrongCD=%d wrongCI=%d) exec=%d sel=%d mark=%d episodes=%d cases=%v",
		s.Cycles, s.RetiredInsts, s.IPC(), s.RetiredBranches, s.RetiredMispredicts,
		round2(100*s.MispredictRate()), s.Flushes, s.FetchedInsts, s.FetchedWrongCD,
		s.FetchedWrongCI, s.ExecutedInsts, s.ExecutedSelects, s.ExecutedMarkers,
		s.Episodes, s.ExitCases)
}

// CheckStats checks the conservation laws of a finished run's accounting
// (call it after Finish):
//
//   - Figure 1 classifies every wrong-path fetch exactly once:
//     FetchedWrongCD + FetchedWrongCI is the number of fetches the front
//     end recorded as wrong-path, and no more than FetchedInsts;
//   - the oracle resumes only after pausing: OracleResumes ≤
//     OraclePauses ≤ OracleResumes + 1;
//   - RetiredMispredicts ≤ RetiredBranches;
//   - the counters of the knob-driven conversions agree with the run's
//     Evidence: EarlyExits > 0 only if early exit fires on the recorded
//     trajectory at the run's threshold, MDBConversions > 0 only if
//     MultipleDiverge is exercised, and MergeEvictions > 0 only if the
//     merge table's peak occupancy reached its size.
func (m *Machine) CheckStats() error {
	st := &m.Stats
	if !m.finished {
		return fmt.Errorf("core: CheckStats before Finish")
	}
	wrong := st.FetchedWrongCD + st.FetchedWrongCI
	if wrong != m.wrongFetches {
		return fmt.Errorf("core: Figure 1 classified %d wrong-path fetches (CD %d + CI %d), fetch recorded %d",
			wrong, st.FetchedWrongCD, st.FetchedWrongCI, m.wrongFetches)
	}
	if wrong > st.FetchedInsts {
		return fmt.Errorf("core: %d wrong-path fetches of %d fetched instructions", wrong, st.FetchedInsts)
	}
	if st.OracleResumes > st.OraclePauses || st.OraclePauses > st.OracleResumes+1 {
		return fmt.Errorf("core: %d oracle pauses against %d resumes", st.OraclePauses, st.OracleResumes)
	}
	if st.RetiredMispredicts > st.RetiredBranches {
		return fmt.Errorf("core: %d retired mispredicts of %d retired branches", st.RetiredMispredicts, st.RetiredBranches)
	}
	ev := m.Evidence()
	if st.EarlyExits > 0 && !(m.cfg.EarlyExit && ev.EarlyExit) {
		return fmt.Errorf("core: %d early exits, but early exit is off or no alternate path reached its threshold", st.EarlyExits)
	}
	if st.MDBConversions > 0 && !ev.MultipleDiverge {
		return fmt.Errorf("core: %d multiple-diverge conversions, but no diverge branch met a live predicted path", st.MDBConversions)
	}
	if st.MergeEvictions > 0 && (m.merge == nil || ev.MergePeak != m.merge.Size()) {
		return fmt.Errorf("core: %d merge-table evictions, but the table's peak occupancy %d is not its size",
			st.MergeEvictions, ev.MergePeak)
	}
	return nil
}
