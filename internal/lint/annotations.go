package lint

import (
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Annotations checks every diverge-branch annotation on p against the
// static CFG. The checks encode the legality rules the profiler's
// selection heuristics are supposed to guarantee (Section 3.2 of the
// paper) — so profile-emitted annotations must always pass, and a
// failure means either a broken profiling pass or a hand-written
// annotation the machine would quietly waste dual-path work on:
//
//   - cfm-range / cfm-missing: CFM points exist and address real code;
//   - cfm-unreachable / cfm-too-far: every CFM point is statically
//     reachable from BOTH outgoing paths of the branch within
//     Options.MaxDist instructions (the profiler's dynamic distance
//     bound; a static shortest path never exceeds an observed dynamic
//     one, so profiler output always satisfies this);
//   - cfm-degenerate: the CFM is not the branch itself or its immediate
//     fall-through (a "merge" the paths only share trivially);
//   - class-mismatch: the recorded BranchClass agrees with the CFG's
//     simple-hammock classification (cfg.SimpleHammockJoin);
//   - loop-flag: Diverge.Loop agrees with the branch direction;
//   - exit-threshold: the early-exit threshold is within the distance
//     bound;
//   - nested-region: a diverge branch inside another diverge region
//     merges inside that region (or exactly at its CFM) — an inner
//     merge beyond the outer one makes the regions overlap improperly.
//
// Cross-checks against CFG.IPostDom: when the branch has an immediate
// post-dominator, a CFM at or before it is ordinary; a CFM strictly past
// the post-dominator cannot be a merge point of the branch's own paths
// and is reported as cfm-past-ipdom.
func Annotations(p *prog.Program, cfg *prog.CFG, opts Options) Diags {
	var ds Diags
	opts = opts.norm()
	n := uint64(len(p.Code))
	if n == 0 {
		return ds
	}
	g := buildGraph(p)

	pcs := p.DivergePCs()
	var regions []region

	for _, pc := range pcs {
		branchDs, reg := checkBranch(p, cfg, g, pc, p.DivergeAt(pc), opts)
		ds = append(ds, branchDs...)
		if reg != nil {
			regions = append(regions, *reg)
		}
	}

	// Nested-region containment: an annotated branch inside region(A)
	// must merge inside region(A) or exactly at A's CFM. Loop diverge
	// branches are exempt on either side — their "region" is a whole
	// loop iteration, so containment against forward hammocks is
	// ill-defined and the profiler legitimately produces overlaps.
	for _, outer := range regions {
		for _, inner := range regions {
			if inner.branch == outer.branch || outer.loop || inner.loop {
				continue
			}
			if _, inside := outer.pcs[inner.branch]; !inside {
				continue
			}
			if inner.cfm == outer.cfm {
				continue
			}
			if _, ok := outer.pcs[inner.cfm]; !ok {
				ds.add(inner.branch, "nested-region", Warning,
					"diverge branch lies inside the region of branch %d (CFM %d) but merges at %d, outside it",
					outer.branch, outer.cfm, inner.cfm)
			}
		}
	}
	return ds.sorted()
}

// region is the predicated range of one annotated branch, used for the
// nested-region containment check: every PC reachable from either path
// before the primary CFM.
type region struct {
	branch uint64
	cfm    uint64
	loop   bool
	pcs    map[uint64]bool
}

// checkBranch checks one candidate annotation d for the branch at pc and
// returns its diagnostics plus the branch's predicated region (nil when
// the annotation is too malformed to define one). It performs every
// per-branch check; only the cross-branch nested-region containment is
// left to the caller.
func checkBranch(p *prog.Program, cfg *prog.CFG, g *graph, pc uint64, d *prog.Diverge, opts Options) (Diags, *region) {
	var ds Diags
	n := uint64(len(p.Code))
	if pc >= n || p.Code[pc].Op != isa.BR {
		ds.add(pc, "diverge-not-branch", Error,
			"diverge annotation on a non-branch (op %v)", p.At(pc).Op)
		return ds, nil
	}
	if len(d.CFMs) == 0 {
		ds.add(pc, "cfm-missing", Error, "diverge branch has no CFM points")
		return ds, nil
	}
	br := p.Code[pc]
	if isLoop := br.Target <= pc; isLoop != d.Loop {
		ds.add(pc, "loop-flag", Error,
			"Loop=%v but branch target %d is %s pc %d",
			d.Loop, br.Target, directionWord(isLoop), pc)
	}
	_, isSimple := cfg.SimpleHammockJoin(pc)
	switch {
	case d.Class == prog.ClassSimpleHammock && !isSimple:
		ds.add(pc, "class-mismatch", Error,
			"annotated simple-hammock but the CFG finds no simple hammock join")
	case d.Class != prog.ClassSimpleHammock && isSimple:
		ds.add(pc, "class-mismatch", Warning,
			"annotated %v but the CFG classifies the branch as a simple hammock", d.Class)
	}
	if d.ExitThreshold < 0 || d.ExitThreshold > opts.MaxDist {
		ds.add(pc, "exit-threshold", Warning,
			"early-exit threshold %d outside [0, %d]", d.ExitThreshold, opts.MaxDist)
	}

	// Distances from each outgoing path. The fall-through successor
	// exists whenever Program passed (no fallthrough-end error); for
	// standalone Annotations calls distWithin reaches nothing past the
	// code's end.
	distTaken := g.distWithin(br.Target, opts.MaxDist, NoPC)
	defer g.release(distTaken)
	distFall := g.distWithin(pc+1, opts.MaxDist, NoPC)
	defer g.release(distFall)
	ipdom, hasIPdom := cfg.IPostDom(pc)

	for _, cfm := range d.CFMs {
		if cfm >= n {
			ds.add(pc, "cfm-range", Error,
				"CFM point %d outside code (len %d)", cfm, n)
			continue
		}
		if cfm == pc || cfm == pc+1 {
			what := "the branch itself"
			if cfm == pc+1 {
				what = "the branch's own fall-through"
			}
			ds.add(pc, "cfm-degenerate", Warning, "CFM point %d is %s", cfm, what)
			continue
		}
		_, onTaken := distTaken.at(cfm)
		_, onFall := distFall.at(cfm)
		switch {
		case !onTaken && !onFall:
			ds.add(pc, "cfm-unreachable", Error,
				"CFM point %d is not reachable within %d instructions on either path", cfm, opts.MaxDist)
		case !onTaken:
			ds.add(pc, "cfm-unreachable", Error,
				"CFM point %d is not reachable within %d instructions on the taken path (target %d)", cfm, opts.MaxDist, br.Target)
		case !onFall:
			ds.add(pc, "cfm-unreachable", Error,
				"CFM point %d is not reachable within %d instructions on the fall-through path", cfm, opts.MaxDist)
		}
		// distWithin is already bounded by MaxDist, so reachable here
		// implies within bound; cfm-too-far is reported by a second,
		// unbounded-enough probe only when the point is reachable at
		// some larger distance. Probe with a generous bound so the
		// diagnostic can distinguish "too far" from "unreachable".
		if !onTaken || !onFall {
			probe := 4 * opts.MaxDist
			if probe < 1024 {
				probe = 1024
			}
			far := g.distWithin(br.Target, probe, NoPC)
			if dT, okT := far.at(cfm); okT && !onTaken {
				ds.add(pc, "cfm-too-far", Warning,
					"CFM point %d is %d instructions down the taken path (bound %d)", cfm, dT, opts.MaxDist)
			}
			g.release(far)
			farF := g.distWithin(pc+1, probe, NoPC)
			if dF, okF := farF.at(cfm); okF && !onFall {
				ds.add(pc, "cfm-too-far", Warning,
					"CFM point %d is %d instructions down the fall-through path (bound %d)", cfm, dF, opts.MaxDist)
			}
			g.release(farF)
		}
		// A primary CFM strictly past the post-dominator: every path
		// already merged at ipdom, so a later "merge point" is
		// control-independent tail, not a merge. Only the primary is
		// held to this — the multiple-CFM enhancement legitimately
		// records later both-path points as alternates.
		if hasIPdom && onTaken && onFall && cfm == d.CFMs[0] &&
			cfm != ipdom && pastIPostDom(g, ipdom, cfm, opts.MaxDist) {
			ds.add(pc, "cfm-past-ipdom", Warning,
				"primary CFM point %d lies beyond the immediate post-dominator %d", cfm, ipdom)
		}
	}

	// Region for nesting checks: everything reachable from either
	// path before the primary CFM.
	primary := d.CFMs[0]
	reg := &region{branch: pc, cfm: primary, loop: d.Loop, pcs: map[uint64]bool{}}
	for _, start := range []uint64{br.Target, pc + 1} {
		x := g.distWithin(start, opts.MaxDist, primary)
		for _, k := range x.pcs {
			reg.pcs[k] = true
		}
		g.release(x)
	}
	return ds, reg
}

// AnnotationOracle answers "would lint accept this single annotation?"
// for many candidate (pc, Diverge) pairs against one fixed program,
// amortizing the supergraph construction. internal/gen's annotation
// synthesizer drives it as the legality oracle while choosing CFM
// points; Annotations itself runs the same per-branch check, so an
// oracle-approved annotation can only draw cross-branch (nested-region)
// diagnostics once attached. An oracle serves one goroutine at a time:
// its searches reuse scratch buffers.
type AnnotationOracle struct {
	p   *prog.Program
	cfg *prog.CFG
	g   *graph
}

// NewAnnotationOracle builds the oracle for p. cfg may be nil, in which
// case a CFG is built internally.
func NewAnnotationOracle(p *prog.Program, cfg *prog.CFG) *AnnotationOracle {
	if cfg == nil {
		cfg = prog.BuildCFG(p)
	}
	return &AnnotationOracle{p: p, cfg: cfg, g: buildGraph(p)}
}

// Check validates the candidate annotation d for the branch at pc as if
// it were the only annotation on the program. The nested-region check
// against other annotated branches is not applied (it depends on the
// full annotation set); everything else — loop flag, class, CFM
// reachability on both paths, distance bound, degeneracy, post-dominator
// consistency — is.
func (o *AnnotationOracle) Check(pc uint64, d *prog.Diverge, opts Options) Diags {
	ds, _ := checkBranch(o.p, o.cfg, o.g, pc, d, opts.norm())
	return ds.sorted()
}

func directionWord(loop bool) string {
	if loop {
		return "backward to/at"
	}
	return "forward of"
}

// pastIPostDom reports whether cfm lies strictly beyond ipdom: reachable
// from the post-dominator but not vice versa. Inside a loop the two reach
// each other through the back edge, so loop-internal points are never
// "past" the post-dominator.
func pastIPostDom(g *graph, ipdom, cfm uint64, maxDist int) bool {
	if ipdom == cfm {
		return false
	}
	fwd := g.distWithin(ipdom, maxDist, NoPC)
	_, reaches := fwd.at(cfm)
	g.release(fwd)
	if !reaches {
		return false
	}
	back := g.distWithin(cfm, maxDist, NoPC)
	_, returns := back.at(ipdom)
	g.release(back)
	return !returns
}
