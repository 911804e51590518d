package lint

import (
	"fmt"
	"maps"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// distWithinMap is distWithin's reference: the same bounded BFS, level
// by level over a map.
func distWithinMap(g *graph, start uint64, maxDist int, stop uint64) map[uint64]int {
	dist := map[uint64]int{}
	if start >= g.n {
		return dist
	}
	frontier := []uint64{start}
	dist[start] = 1
	for d := 1; d < maxDist && len(frontier) > 0; d++ {
		var next []uint64
		for _, pc := range frontier {
			if pc == stop {
				continue
			}
			for _, s := range g.succs[pc] {
				if s < g.n {
					if _, ok := dist[s]; !ok {
						dist[s] = d + 1
						next = append(next, s)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}

// DistWithinMismatch runs distWithin and distWithinMap from the target
// and the fall-through of every branch of p, under the default distance
// bound and the cfm-too-far probe's, unstopped and stopped at the
// branch's immediate post-dominator and at its primary CFM point. It
// describes the first run whose distances differ, or returns "" and the
// number of runs compared.
func DistWithinMismatch(p *prog.Program) (string, int) {
	g := buildGraph(p)
	cfg := prog.BuildCFG(p)
	runs := 0
	for pc := uint64(0); pc < g.n; pc++ {
		if p.Code[pc].Op != isa.BR {
			continue
		}
		stops := []uint64{NoPC}
		if ipdom, ok := cfg.IPostDom(pc); ok {
			stops = append(stops, ipdom)
		}
		if d := p.DivergeAt(pc); d != nil && len(d.CFMs) > 0 {
			stops = append(stops, d.CFMs[0])
		}
		for _, start := range []uint64{p.Code[pc].Target, pc + 1} {
			for _, maxDist := range []int{Options{}.norm().MaxDist, 1024} {
				for _, stop := range stops {
					want := distWithinMap(g, start, maxDist, stop)
					x := g.distWithin(start, maxDist, stop)
					got := map[uint64]int{}
					for _, k := range x.pcs {
						got[k], _ = x.at(k)
					}
					g.release(x)
					runs++
					if !maps.Equal(got, want) {
						return fmt.Sprintf("branch %d, start %d, bound %d, stop %d: %d PCs reached, want %d",
							pc, start, maxDist, stop, len(got), len(want)), runs
					}
				}
			}
		}
	}
	return "", runs
}
