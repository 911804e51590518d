// Package profile implements the compiler side of the diverge-merge
// processor: profiling runs over the functional emulator that select
// diverge branches and their control-flow merge (CFM) points, following
// the heuristics of Section 3.2 of the paper:
//
//   - a branch is a diverge-branch candidate if it accounts for at least
//     0.1% of all mispredictions in the profiling run;
//   - a CFM point must appear on both the taken and the not-taken path of
//     the branch for at least 20% of its dynamic instances;
//   - a CFM point must lie within 120 dynamic instructions of the branch;
//   - the most frequent qualifying CFM point is marked for the basic
//     mechanism; all qualifying points are kept for the multiple-CFM-point
//     enhancement (Section 2.7.1);
//   - a per-branch early-exit threshold is derived from the observed
//     dynamic distance to the CFM point (Section 2.7.2).
//
// Profiling must use a different input from measurement (the paper uses
// the train input set); workloads expose distinct seeds for this.
//
// Run streams: it executes the program twice and keeps no per-instruction
// record. Pass 1 counts every branch's executions, directions and
// mispredictions in slices indexed by PC, and so picks the candidates.
// Pass 2 re-executes the same instructions on a fresh emulator. It keeps
// the last MaxDist (pc, call depth) pairs in a ring and a FIFO of the
// sampled candidate instances whose windows are still open, and analyses
// each window just before the ring overwrites its first instruction, so
// the windows are analysed in instance order, as a whole-run trace would
// give them. Pass 2 stops as soon as every (candidate, direction) sample
// set holds SamplesPerBranch instances (or all the run has) and no window
// is open, which on a long run is long before the end. What a profile
// holds is therefore bounded by the code image, MaxDist and the sample
// caps, not by the length of the run.
package profile

import (
	"fmt"
	"sort"

	"dmp/internal/bpred"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Options tunes the selection heuristics. The zero value is *not* valid;
// use DefaultOptions.
type Options struct {
	// MaxInsts bounds the profiling run (0 = run to completion).
	MaxInsts uint64
	// MispredictShare is the minimum share of total mispredictions for a
	// branch to become a candidate (paper: 0.001).
	MispredictShare float64
	// ReconvergeFrac is the minimum fraction of dynamic instances, on
	// each path, in which a CFM point must appear (paper: 0.2).
	ReconvergeFrac float64
	// MaxDist is the maximum dynamic-instruction distance from the branch
	// to a CFM point (paper: 120).
	MaxDist int
	// MaxCFMs caps how many CFM points are recorded per branch for the
	// multiple-CFM enhancement.
	MaxCFMs int
	// SamplesPerBranch caps how many dynamic instances per (branch,
	// direction) feed the reconvergence analysis, for profiling speed.
	SamplesPerBranch int
	// IncludeLoops marks backward (loop) diverge branches too (Section
	// 2.7.4 future work). When false, backward branches are classified
	// but not marked.
	IncludeLoops bool
	// UsePostDom selects the immediate post-dominator as the CFM point
	// instead of the frequently-executed-path point (ablation: this is
	// what DMP argues *against*, since the post-dominator is often much
	// farther than the frequent-path merge point).
	UsePostDom bool
	// Predictor used to attribute mispredictions during profiling; nil
	// selects a fresh default perceptron.
	Predictor bpred.DirPredictor
}

// Version names the profiler's selection behaviour. Diverge tables
// persisted by the result store are keyed by it (through Options.Key),
// so bump it with any change to this package that can move the table
// Run produces for some program and options: every stored table then
// reads as a miss and is profiled afresh, instead of being served
// stale. TestProfileTablesPinned fails until it is bumped.
const Version = 1

// DefaultOptions returns the paper's heuristics.
func DefaultOptions() Options {
	return Options{
		MispredictShare:  0.001,
		ReconvergeFrac:   0.2,
		MaxDist:          120,
		MaxCFMs:          4,
		SamplesPerBranch: 2000,
	}
}

// Key names the profiler and every scalar option that selects the
// diverge table Run produces: two Options with equal Keys mark the same
// program identically. Predictor is not part of it; callers that key
// persisted tables on Key run the default predictor.
func (o Options) Key() string {
	return fmt.Sprintf("profile/v%d max-insts=%d mispredict-share=%g reconverge-frac=%g max-dist=%d max-cfms=%d samples=%d loops=%t postdom=%t",
		Version, o.MaxInsts, o.MispredictShare, o.ReconvergeFrac, o.MaxDist, o.MaxCFMs,
		o.SamplesPerBranch, o.IncludeLoops, o.UsePostDom)
}

// BranchStat summarises one static branch over the profiling run.
type BranchStat struct {
	PC          uint64
	Execs       uint64
	Taken       uint64
	Mispredicts uint64
	Class       prog.BranchClass
	// Marked reports whether the branch was annotated as a diverge branch.
	Marked bool
	// CFMs are the selected merge points (empty if none qualified).
	CFMs []uint64
	// AvgDist is the mean dynamic distance to the primary CFM point.
	AvgDist float64
}

// Report is the result of a profiling pass.
type Report struct {
	TotalInsts       uint64
	TotalBranches    uint64
	TotalMispredicts uint64
	Branches         []BranchStat // sorted by descending mispredicts
}

// String renders the report as a table.
func (r *Report) String() string {
	s := fmt.Sprintf("insts=%d branches=%d mispredicts=%d (%.2f%% missrate)\n",
		r.TotalInsts, r.TotalBranches, r.TotalMispredicts,
		100*float64(r.TotalMispredicts)/float64(max64(r.TotalBranches, 1)))
	s += fmt.Sprintf("%8s %10s %10s %10s %-16s %6s %8s %s\n",
		"pc", "execs", "taken", "misp", "class", "marked", "avgdist", "cfms")
	for _, b := range r.Branches {
		s += fmt.Sprintf("%8d %10d %10d %10d %-16s %6v %8.1f %v\n",
			b.PC, b.Execs, b.Taken, b.Mispredicts, b.Class, b.Marked, b.AvgDist, b.CFMs)
	}
	return s
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Run profiles p and annotates it in place with diverge-branch marks.
// It returns the report. The pass is deterministic. Besides the two
// emulators, it holds per-PC counters and marks over the code image, a
// ring and a window FIFO of MaxDist entries each, and per-candidate
// merge-point statistics (see the package comment).
func Run(p *prog.Program, opts Options) (*Report, error) {
	if opts.MaxDist <= 0 || opts.ReconvergeFrac <= 0 {
		return nil, fmt.Errorf("profile: invalid options (use DefaultOptions)")
	}
	pred := opts.Predictor
	if pred == nil {
		pred = bpred.NewPerceptron(bpred.DefaultPerceptronConfig())
	}

	// Pass 1: per-branch execution, direction and misprediction counts,
	// indexed by PC.
	stats := make([]bstat, len(p.Code))
	e := emu.New(p)
	var s emu.Step
	var hist bpred.GHR
	var totalBr, totalMisp uint64
	for !e.Halted && (opts.MaxInsts == 0 || e.Count < opts.MaxInsts) {
		if err := e.StepInto(&s); err != nil {
			return nil, fmt.Errorf("profile: emulation failed: %w", err)
		}
		if s.Inst.Op != isa.BR {
			continue
		}
		st := &stats[s.PC]
		st.execs++
		totalBr++
		if s.Taken {
			st.taken++
		}
		if bpred.PredictUpdate(pred, s.PC, hist, s.Taken) != s.Taken {
			st.misp++
			totalMisp++
		}
		hist = hist.Push(s.Taken)
	}

	// Candidates by misprediction share. Pass 1's direction counts say
	// how many instances each (candidate, direction) sample set will
	// take, so pass 2 knows when every set is full.
	cands := make([]*candData, len(p.Code))
	var want uint64
	for pc := range stats {
		st := &stats[pc]
		if totalMisp > 0 && float64(st.misp) >= opts.MispredictShare*float64(totalMisp) && st.misp > 0 {
			cd := &candData{points: map[uint64]*cfmStat{}}
			cd.takenWant = min(st.taken, uint64(opts.SamplesPerBranch))
			cd.ntWant = min(st.execs-st.taken, uint64(opts.SamplesPerBranch))
			want += cd.takenWant + cd.ntWant
			cands[pc] = cd
		}
	}

	// Pass 2: reconvergence analysis over a re-execution of pass 1's
	// instructions. Each sampled candidate instance opens a window over
	// the MaxDist instructions after its branch, which the scanner
	// analyses from its ring. The pass stops once every sample set is
	// full and no window is open; windows still open when the run ends
	// are cut there.
	total := e.Count
	sc := newScanner(len(p.Code), opts.MaxDist)
	e = emu.New(p)
	var depth int32 // call depth of the instruction about to execute
	for e.Count < total && (want > 0 || sc.open > 0) {
		if err := e.StepInto(&s); err != nil {
			return nil, fmt.Errorf("profile: emulation failed: %w", err)
		}
		sc.push(s.PC, depth)
		brDepth := depth
		switch s.Inst.Op {
		case isa.CALL, isa.CALLR:
			depth++
		case isa.RET:
			depth--
		case isa.BR:
			if cd := cands[s.PC]; cd != nil && cd.sample(s.Taken) {
				want--
				sc.openWindow(cd, s.Taken, brDepth)
			}
		}
	}
	sc.flush()

	// Selection.
	cfg := prog.BuildCFG(p)
	p.ClearDiverge()
	report := &Report{TotalInsts: total, TotalBranches: totalBr, TotalMispredicts: totalMisp}

	for pc := range stats {
		st := &stats[pc]
		if st.execs == 0 {
			continue
		}
		bs := BranchStat{PC: uint64(pc), Execs: st.execs, Taken: st.taken, Mispredicts: st.misp}
		if cd := cands[pc]; cd != nil {
			cfms, avgDist := selectCFMs(cfg, bs.PC, cd, opts)
			if len(cfms) > 0 {
				bs.CFMs, bs.AvgDist = cfms, avgDist
				if _, isSimple := cfg.SimpleHammockJoin(bs.PC); isSimple {
					bs.Class = prog.ClassSimpleHammock
				} else {
					bs.Class = prog.ClassComplexDiverge
				}
				isLoop := p.Code[pc].Target <= bs.PC
				if !isLoop || opts.IncludeLoops {
					thr := int(avgDist*1.5) + 8
					if thr > opts.MaxDist {
						thr = opts.MaxDist
					}
					p.MarkDiverge(bs.PC, &prog.Diverge{
						CFMs:          cfms,
						Class:         bs.Class,
						ExitThreshold: thr,
						Loop:          isLoop,
					})
					bs.Marked = true
				}
			}
		}
		report.Branches = append(report.Branches, bs)
	}
	sort.Slice(report.Branches, func(i, j int) bool {
		if report.Branches[i].Mispredicts != report.Branches[j].Mispredicts {
			return report.Branches[i].Mispredicts > report.Branches[j].Mispredicts
		}
		return report.Branches[i].PC < report.Branches[j].PC
	})
	return report, nil
}

// bstat counts one static branch's pass-1 outcomes.
type bstat struct {
	execs, taken, misp uint64
}

// scanner is pass 2's bounded state: the ring of the last MaxDist
// (pc, call depth) pairs, indexed by dynamic instruction number modulo
// MaxDist, and the FIFO of open windows. At most MaxDist windows are
// open at once, one per instruction in the ring.
type scanner struct {
	ring []traced
	// n is the number of instructions pushed; the next goes to
	// ring[slot], which is n modulo MaxDist.
	n    uint64
	slot int
	// wins is the FIFO of open windows: open of them from wins[head],
	// wrapping.
	wins       []window
	head, open int
	// seen[pc] is the serial of the last window in which pc was counted,
	// so only a PC's first occurrence in a window counts.
	seen   []uint64
	serial uint64
}

// traced is one ring entry: an executed PC and the call depth it ran at.
type traced struct {
	pc    uint64
	depth int32
}

// window is one sampled candidate instance awaiting analysis. Its
// window starts at dynamic instruction start, the one after the branch.
type window struct {
	cd    *candData
	start uint64
	depth int32 // the branch's call depth
	taken bool
}

func newScanner(codeLen, maxDist int) *scanner {
	return &scanner{ring: make([]traced, maxDist), wins: make([]window, maxDist), seen: make([]uint64, codeLen)}
}

// push appends the next executed instruction to the ring. If it is the
// last instruction of the oldest open window, that window is analysed
// at once, before the next push overwrites the window's first.
func (sc *scanner) push(pc uint64, depth int32) {
	sc.ring[sc.slot] = traced{pc, depth}
	if sc.slot++; sc.slot == len(sc.ring) {
		sc.slot = 0
	}
	sc.n++
	if sc.open > 0 && sc.n-sc.wins[sc.head].start == uint64(len(sc.ring)) {
		sc.analyse(&sc.wins[sc.head])
		sc.pop()
	}
}

func (sc *scanner) pop() {
	sc.head++
	if sc.head == len(sc.wins) {
		sc.head = 0
	}
	sc.open--
}

// openWindow opens the window of the branch just pushed.
func (sc *scanner) openWindow(cd *candData, taken bool, depth int32) {
	sc.wins[(sc.head+sc.open)%len(sc.wins)] = window{cd: cd, start: sc.n, depth: depth, taken: taken}
	sc.open++
}

// flush analyses the windows still open, cut at the last instruction
// pushed.
func (sc *scanner) flush() {
	for sc.open > 0 {
		sc.analyse(&sc.wins[sc.head])
		sc.pop()
	}
}

// analyse counts the first occurrence of every PC that ran at the
// branch's call depth in w's window: the instructions from w.start to
// the last one pushed.
func (sc *scanner) analyse(w *window) {
	sc.serial++
	n := int(sc.n - w.start)
	j := sc.slot - n
	if j < 0 {
		j += len(sc.ring)
	}
	for k := 1; k <= n; k++ {
		t := sc.ring[j]
		if j++; j == len(sc.ring) {
			j = 0
		}
		// A control-flow merge point must sit at the branch's own call
		// depth: a PC inside a callee (or in a caller frame) only
		// appears "on both paths" through unrelated dynamic call
		// instances, and predicating up to it drags whole call bodies
		// into the dynamically predicated region.
		if t.depth != w.depth || sc.seen[t.pc] == sc.serial {
			continue
		}
		sc.seen[t.pc] = sc.serial
		cs := w.cd.points[t.pc]
		if cs == nil {
			cs = &cfmStat{}
			w.cd.points[t.pc] = cs
		}
		if w.taken {
			cs.takenHits++
		} else {
			cs.ntHits++
		}
		cs.sumDist += uint64(k)
	}
}

// cfmStat accumulates per-CFM-candidate appearance counts.
type cfmStat struct {
	takenHits, ntHits uint64
	sumDist           uint64
}

// candData accumulates reconvergence data for one candidate branch.
type candData struct {
	takenSamples, ntSamples uint64
	// takenWant and ntWant are how many instances each direction's
	// sample set takes: SamplesPerBranch, or fewer if the run has fewer.
	takenWant, ntWant uint64
	points            map[uint64]*cfmStat
}

// sample reports whether an instance in direction taken is sampled:
// the first SamplesPerBranch instances of each direction are.
func (cd *candData) sample(taken bool) bool {
	if taken {
		if cd.takenSamples >= cd.takenWant {
			return false
		}
		cd.takenSamples++
		return true
	}
	if cd.ntSamples >= cd.ntWant {
		return false
	}
	cd.ntSamples++
	return true
}

// selectCFMs picks the qualifying CFM points for one candidate branch:
// PCs appearing on at least ReconvergeFrac of the sampled instances of
// *both* directions, ranked by combined appearance frequency (ties broken
// toward the nearer point). With UsePostDom, the immediate post-dominator
// is used instead, modelling the conventional reconvergence-point choice
// DMP improves upon.
func selectCFMs(cfg *prog.CFG, branchPC uint64, cd *candData, opts Options) ([]uint64, float64) {
	if opts.UsePostDom {
		if pd, ok := cfg.IPostDom(branchPC); ok && pd != branchPC {
			// Distance statistics still come from the dynamic profile if
			// the point was observed; otherwise assume the max.
			avg := float64(opts.MaxDist)
			if cs := cd.points[pd]; cs != nil && cs.takenHits+cs.ntHits > 0 {
				avg = float64(cs.sumDist) / float64(cs.takenHits+cs.ntHits)
			}
			return []uint64{pd}, avg
		}
		return nil, 0
	}
	if cd.takenSamples == 0 || cd.ntSamples == 0 {
		// The branch essentially never goes one way in the profile; there
		// is no "both paths" evidence, so it is not a diverge branch.
		return nil, 0
	}
	type scored struct {
		pc      uint64
		minFrac float64
		avgDist float64
	}
	var qual []scored
	for pc, cs := range cd.points {
		// The branch itself can never merge its own paths, and its
		// fall-through is a degenerate "merge" that only appears on both
		// paths through loop iteration carry: selecting it makes the
		// dynamically predicated region span a whole loop body.
		if pc == branchPC || pc == branchPC+1 {
			continue
		}
		ft := float64(cs.takenHits) / float64(cd.takenSamples)
		fn := float64(cs.ntHits) / float64(cd.ntSamples)
		if ft < opts.ReconvergeFrac || fn < opts.ReconvergeFrac {
			continue
		}
		minf := ft
		if fn < ft {
			minf = fn
		}
		qual = append(qual, scored{pc, minf, float64(cs.sumDist) / float64(cs.takenHits+cs.ntHits)})
	}
	if len(qual) == 0 {
		return nil, 0
	}
	sort.Slice(qual, func(i, j int) bool {
		if qual[i].minFrac != qual[j].minFrac {
			return qual[i].minFrac > qual[j].minFrac
		}
		if qual[i].avgDist != qual[j].avgDist {
			return qual[i].avgDist < qual[j].avgDist
		}
		return qual[i].pc < qual[j].pc
	})
	n := opts.MaxCFMs
	if n <= 0 {
		n = 1
	}
	if len(qual) > n {
		qual = qual[:n]
	}
	cfms := make([]uint64, len(qual))
	for i, q := range qual {
		cfms[i] = q.pc
	}
	return cfms, qual[0].avgDist
}
