package lint

import (
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// graph is an instruction-level flow supergraph used by the reachability
// and CFM-distance analyses. Edges:
//
//   - straight-line and branch/jump edges as usual;
//   - CALL: an edge into the callee entry AND a collapsed edge to the
//     call's return point (so intra-procedural paths skip callee bodies,
//     which only underestimates dynamic distance — the safe direction
//     for a "within MaxDist" check);
//   - RET: edges to the return point of every call site whose callee can
//     reach this RET. The profiler matches CFM points by absolute call
//     depth, so a merge point may legally sit in a *different* function
//     at the same depth (branch in f, both paths return, the caller then
//     calls g); return edges make those paths visible statically.
//
// The construction is context-insensitive, so it admits some
// unrealizable paths; for lint purposes that only makes the checks more
// lenient, never produces a false alarm.
type graph struct {
	n     uint64
	succs [][]uint64
	exits []uint64 // PCs of HALT/RET/JR instructions (static exit points)
	free  []*dists // distWithin's released results, for reuse
}

// buildGraph constructs the supergraph. Targets must already be
// range-checked.
func buildGraph(p *prog.Program) *graph {
	n := uint64(len(p.Code))
	g := &graph{n: n, succs: make([][]uint64, n)}

	// Function extents: callee entry -> set of RET PCs reachable
	// intra-procedurally (nested calls collapsed).
	indirectSites := []uint64{} // CALLR return points: callee unknown
	callSitesOf := map[uint64][]uint64{}
	for pc := uint64(0); pc < n; pc++ {
		switch p.Code[pc].Op {
		case isa.CALL:
			callSitesOf[p.Code[pc].Target] = append(callSitesOf[p.Code[pc].Target], pc)
		case isa.CALLR:
			if pc+1 < n {
				indirectSites = append(indirectSites, pc+1)
			}
		}
	}
	retsOf := func(entry uint64) []uint64 {
		var rets []uint64
		seen := map[uint64]bool{}
		stack := []uint64{entry}
		for len(stack) > 0 {
			pc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if pc >= n || seen[pc] {
				continue
			}
			seen[pc] = true
			switch in := p.Code[pc]; in.Op {
			case isa.RET:
				rets = append(rets, pc)
			case isa.JR, isa.HALT:
			case isa.JMP:
				stack = append(stack, in.Target)
			case isa.BR:
				stack = append(stack, in.Target, pc+1)
			default:
				stack = append(stack, pc+1)
			}
		}
		return rets
	}
	retEdges := map[uint64][]uint64{} // RET pc -> return points
	for entry, sites := range callSitesOf {
		for _, ret := range retsOf(entry) {
			for _, site := range sites {
				if site+1 < n {
					retEdges[ret] = append(retEdges[ret], site+1)
				}
			}
		}
	}

	for pc := uint64(0); pc < n; pc++ {
		in := p.Code[pc]
		switch in.Op {
		case isa.BR:
			if pc+1 < n {
				g.succs[pc] = append(g.succs[pc], pc+1)
			}
			g.succs[pc] = append(g.succs[pc], in.Target)
		case isa.JMP:
			g.succs[pc] = append(g.succs[pc], in.Target)
		case isa.CALL:
			g.succs[pc] = append(g.succs[pc], in.Target)
			if pc+1 < n {
				g.succs[pc] = append(g.succs[pc], pc+1) // collapsed return
			}
		case isa.CALLR:
			// Unknown callee; the collapsed return edge keeps the caller
			// connected. Possible callees are all labelled PCs, handled
			// leniently by reachableFrom's extraRoots in Program.
			if pc+1 < n {
				g.succs[pc] = append(g.succs[pc], pc+1)
			}
		case isa.RET:
			g.succs[pc] = append(g.succs[pc], retEdges[pc]...)
			for _, s := range indirectSites {
				g.succs[pc] = append(g.succs[pc], s)
			}
			g.exits = append(g.exits, pc)
		case isa.JR:
			g.exits = append(g.exits, pc)
		case isa.HALT:
			g.exits = append(g.exits, pc)
		default:
			if pc+1 < n {
				g.succs[pc] = append(g.succs[pc], pc+1)
			}
		}
	}
	return g
}

// reachableFrom returns the set of PCs reachable from the roots.
func (g *graph) reachableFrom(roots []uint64) map[uint64]bool {
	seen := map[uint64]bool{}
	stack := append([]uint64(nil), roots...)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc >= g.n || seen[pc] {
			continue
		}
		seen[pc] = true
		stack = append(stack, g.succs[pc]...)
	}
	return seen
}

// reachesExit returns, for every PC, whether some static exit (HALT, RET
// or JR) is reachable from it — computed as backward reachability from
// the exits over reversed edges.
func (g *graph) reachesExit() map[uint64]bool {
	preds := make([][]uint64, g.n)
	for pc := uint64(0); pc < g.n; pc++ {
		for _, s := range g.succs[pc] {
			if s < g.n {
				preds[s] = append(preds[s], pc)
			}
		}
	}
	seen := map[uint64]bool{}
	stack := append([]uint64(nil), g.exits...)
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		stack = append(stack, preds[pc]...)
	}
	return seen
}

// dists is one bounded BFS's result: the shortest distance to every PC
// the search reached, and those PCs in the order it reached them.
type dists struct {
	d   []int32  // by PC; 0: not reached
	pcs []uint64 // the reached PCs, in BFS order
}

// at returns the distance to pc and whether the search reached it.
func (x *dists) at(pc uint64) (int, bool) {
	if pc >= uint64(len(x.d)) || x.d[pc] == 0 {
		return 0, false
	}
	return int(x.d[pc]), true
}

// distWithin runs a bounded BFS from a start PC and returns the shortest
// distance (in instructions executed, start counting as 1) to every PC
// within maxDist. stop, if valid, is not expanded past — used to bound a
// diverge region at its CFM point. The result is scratch of g's, handed
// back with release once read, so a graph serves one goroutine at a
// time.
func (g *graph) distWithin(start uint64, maxDist int, stop uint64) *dists {
	var x *dists
	if k := len(g.free); k > 0 {
		x, g.free = g.free[k-1], g.free[:k-1]
	} else {
		x = &dists{d: make([]int32, g.n)}
	}
	if start >= g.n {
		return x
	}
	x.d[start] = 1
	x.pcs = append(x.pcs, start)
	// x.pcs is the BFS queue: distances along it never decrease.
	for i := 0; i < len(x.pcs); i++ {
		pc := x.pcs[i]
		d := x.d[pc]
		if int(d) >= maxDist || pc == stop {
			continue
		}
		for _, s := range g.succs[pc] {
			if s < g.n && x.d[s] == 0 {
				x.d[s] = d + 1
				x.pcs = append(x.pcs, s)
			}
		}
	}
	return x
}

// release clears x, a result of g.distWithin, and returns it to g's
// scratch.
func (g *graph) release(x *dists) {
	for _, pc := range x.pcs {
		x.d[pc] = 0
	}
	x.pcs = x.pcs[:0]
	g.free = append(g.free, x)
}
