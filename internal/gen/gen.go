// Package gen is a seeded, deterministic random program generator whose
// output is lint-clean by construction.
//
// The paper's taxonomy (Figure 3) spans simple hammocks, nested diamonds,
// loops with early exits, and "other complex" control flow — shapes the 15
// hand-built workloads only sample. gen grows an abstract syntax tree of
// exactly those shapes (hammock, loop with break/continue, call tree,
// unstructured multi-branch region, straight-line statement runs) and
// emits it through prog.Builder using constructions that respect every
// invariant internal/lint checks: all emitted code is reachable, every
// read register is written first (or architecturally defined), calls keep
// their link register and callees return, every loop is bounded, and the
// last instruction never falls off the code image.
//
// A CFM-annotation synthesizer derives candidate diverge annotations from
// the generated structure (hammock joins, loop latches, break/continue
// reconvergence, complex-region merge labels) and keeps only candidates
// the lint annotation oracle (lint.AnnotationOracle) accepts, then drops
// any survivor that draws a cross-branch nested-region diagnostic — so a
// generated program is diagnostic-clean, warnings included. Any lint
// finding on generated output is therefore a generator bug, and any
// lint-clean generated program that faults the emulator is a counter-
// example to the lint soundness contract: the two artifacts verify each
// other (see diff.go for the full differential harness).
//
// Everything is a pure function of Options: the code image depends only
// on the structure seed and shape knobs, while DataSeed varies the
// initial data memory and register contents without moving a single
// instruction — exactly the train/ref split internal/exp's annotation
// transfer requires. Per-node randomness is stored in the tree, so the
// shrinker (shrink.go) can delete or simplify any subtree and re-emit
// without perturbing its siblings.
package gen

import (
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Options parameterises one generated program. The zero value of every
// knob selects a default via norm; Annotate defaults to off, so use
// DefaultOptions for the annotated population.
type Options struct {
	// Seed drives program structure. Two Options with equal Seed and
	// shape knobs emit byte-identical code images regardless of DataSeed.
	Seed uint64
	// DataSeed drives initial data memory and register contents (loaded
	// from data words at startup). 0 derives a stream from Seed.
	DataSeed uint64
	// Iters is the driver-loop trip count: the dynamic-length knob. It
	// changes one LI immediate, never the code layout. Default 24.
	Iters int
	// MaxDepth bounds structural nesting (hammock-in-loop-in-hammock...).
	// Default 3.
	MaxDepth int
	// Stmts is the number of top-level nodes in the driver body.
	// Default 7.
	Stmts int
	// Annotate runs the CFM-annotation synthesizer over the emitted
	// program (annotate.go), attaching every structurally derived
	// annotation the lint oracle accepts.
	Annotate bool
	// MaxDist is the CFM static-distance bound handed to the lint
	// oracle; 0 selects lint's default (the profiler's 120).
	MaxDist int
}

// DefaultOptions returns the annotated generator configuration for one
// structure seed.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, Annotate: true}
}

func (o Options) norm() Options {
	if o.DataSeed == 0 {
		o.DataSeed = o.Seed ^ 0xd1b54a32d192ed03
	}
	if o.Iters <= 0 {
		o.Iters = 24
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.Stmts <= 0 {
		o.Stmts = 7
	}
	return o
}

// rng is splitmix64: tiny, fast, and ours — the generator must not
// depend on math/rand's sequence (dmpvet bans it from simulation
// packages, and this package's output is pinned by golden tests).
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) n(n int) int { return int(r.next() % uint64(n)) }

// coin reports true with probability pct/100.
func (r *rng) coin(pct int) bool { return r.n(100) < pct }

// Kind discriminates AST nodes.
type Kind uint8

const (
	// KStmts is a run of N straight-line instructions.
	KStmts Kind = iota
	// KSeq is a sequence of children.
	KSeq
	// KHammock is an if (one arm) or if-else (two arms, Else set).
	KHammock
	// KLoop is a bounded counter loop of N trips around Kids[0].
	KLoop
	// KCall calls generated function N.
	KCall
	// KComplex is an unstructured two-branch region with overlapping
	// merge points ("other complex" in the paper's taxonomy).
	KComplex
	// KBreak is a conditional early exit from the innermost loop.
	KBreak
	// KContinue is a conditional skip to the innermost loop's latch.
	KContinue
)

func (k Kind) String() string {
	switch k {
	case KStmts:
		return "stmts"
	case KSeq:
		return "seq"
	case KHammock:
		return "hammock"
	case KLoop:
		return "loop"
	case KCall:
		return "call"
	case KComplex:
		return "complex"
	case KBreak:
		return "break"
	case KContinue:
		return "continue"
	}
	return "node?"
}

// Node is one AST node. All node-local randomness (instruction mix,
// condition bits) is frozen into Seed at growth time, so re-emitting a
// mutated tree leaves untouched subtrees byte-identical.
type Node struct {
	Kind Kind
	Kids []*Node
	// N is the statement count (KStmts), trip count (KLoop), or callee
	// index (KCall).
	N int
	// Else marks a two-arm hammock (Kids[1] is the taken arm).
	Else bool
	// Seed is the node-local randomness stream.
	Seed uint64
}

func (n *Node) clone() *Node {
	c := *n
	c.Kids = make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		c.Kids[i] = k.clone()
	}
	return &c
}

// count returns the number of nodes in the tree.
func (n *Node) count() int {
	total := 1
	for _, k := range n.Kids {
		total += k.count()
	}
	return total
}

// Fn is one generated function. Leaves are straight-line bodies ending
// in RET; non-leaves save LR to the stack around a call to leaf Callee.
type Fn struct {
	Leaf   bool
	Callee int // leaf index called by a non-leaf
	Body   *Node
}

// Generated bundles a grown tree with its emitted program so the
// shrinker and the differential harness can re-emit under modified
// options or a mutated tree.
type Generated struct {
	Opts Options
	Root *Node
	Fns  []*Fn
	Prog *prog.Program
}

// grow builds the function set and driver-body tree for o.Seed.
func grow(o Options) (*Node, []*Fn) {
	r := newRng(o.Seed)
	var fns []*Fn
	nLeaf := 1 + r.n(3)
	for i := 0; i < nLeaf; i++ {
		fns = append(fns, &Fn{Leaf: true, Body: stmtsNode(r, 1+r.n(3))})
	}
	if r.coin(70) {
		fns = append(fns, &Fn{Callee: r.n(nLeaf), Body: stmtsNode(r, 1+r.n(2))})
	}
	root := &Node{Kind: KSeq, Seed: r.next()}
	for i := 0; i < o.Stmts; i++ {
		root.Kids = append(root.Kids, growNode(r, o, 0, 0, len(fns)))
	}
	return root, fns
}

func stmtsNode(r *rng, n int) *Node {
	return &Node{Kind: KStmts, N: n, Seed: r.next()}
}

// growNode picks one node for the given structural depth and loop
// nesting. Loop nesting is bounded separately because each live loop
// holds a dedicated counter register.
func growNode(r *rng, o Options, depth, loopDepth, nFns int) *Node {
	if depth >= o.MaxDepth {
		return stmtsNode(r, 1+r.n(3))
	}
	roll := r.n(100)
	switch {
	case roll < 34:
		return stmtsNode(r, 1+r.n(4))
	case roll < 62:
		h := &Node{Kind: KHammock, Seed: r.next()}
		h.Kids = append(h.Kids, growSeq(r, o, depth+1, loopDepth, nFns))
		if r.coin(50) {
			h.Else = true
			h.Kids = append(h.Kids, growSeq(r, o, depth+1, loopDepth, nFns))
		}
		return h
	case roll < 78 && loopDepth < len(loopRegs):
		l := &Node{Kind: KLoop, N: 1 + r.n(4), Seed: r.next()}
		body := growSeq(r, o, depth+1, loopDepth+1, nFns)
		// Conditional early exit / iteration skip, somewhere in the body.
		if r.coin(40) {
			body.Kids = insertAt(body.Kids, r.n(len(body.Kids)+1),
				&Node{Kind: KBreak, Seed: r.next()})
		}
		if r.coin(30) {
			body.Kids = insertAt(body.Kids, r.n(len(body.Kids)+1),
				&Node{Kind: KContinue, Seed: r.next()})
		}
		l.Kids = []*Node{body}
		return l
	case roll < 88 && nFns > 0:
		return &Node{Kind: KCall, N: r.n(nFns), Seed: r.next()}
	case roll < 96:
		return &Node{Kind: KComplex, Seed: r.next()}
	default:
		return stmtsNode(r, 1+r.n(2))
	}
}

func growSeq(r *rng, o Options, depth, loopDepth, nFns int) *Node {
	s := &Node{Kind: KSeq, Seed: r.next()}
	n := 1 + r.n(2)
	for i := 0; i < n; i++ {
		s.Kids = append(s.Kids, growNode(r, o, depth, loopDepth, nFns))
	}
	return s
}

func insertAt(kids []*Node, i int, n *Node) []*Node {
	kids = append(kids, nil)
	copy(kids[i+1:], kids[i:])
	kids[i] = n
	return kids
}

// Register assignment. The zero register, SP and LR are architectural;
// everything else is partitioned so no structure can clobber another's
// state: r1 is the PRNG register (branch-condition entropy), r2 the
// driver-loop counter, r3 the condition/address temporary, scratch
// registers carry workload data, and each live loop nesting level owns
// one counter register.
const (
	regRng  = isa.Reg(1)
	regIter = isa.Reg(2)
	regTmp  = isa.Reg(3)
)

var scratchRegs = []isa.Reg{4, 5, 6, 7, 10, 11, 12}

var loopRegs = []isa.Reg{20, 21, 22, 23}
