package gen

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Memory layout of generated programs. The init table seeds registers
// from data memory (so DataSeed changes machine state without touching
// code), the scratch region takes the workload's load/store traffic, and
// the result word receives a final store so every run ends with a
// memory-visible artifact.
const (
	initBase    = uint64(0x6000)
	scratchBase = int64(0x7000)
	resultAddr  = int64(0x900)
)

// cfmRef names a candidate CFM point either by emitted label (resolved
// after Build) or by a PC offset from the candidate branch.
type cfmRef struct {
	label string
	rel   uint64 // used when label == ""
}

// candidate is a structurally derived diverge-annotation candidate:
// a branch PC plus CFM points the emitter knows both paths share.
type candidate struct {
	br   uint64
	cfms []cfmRef
}

type loopCtx struct {
	latch, exit string
}

type emitter struct {
	b     *prog.Builder
	o     Options
	nFns  int
	label int
	depth int // live loop nesting; indexes loopRegs
	loops []loopCtx
	cands []candidate
}

func (e *emitter) fresh(prefix string) string {
	e.label++
	return fmt.Sprintf("%s%d", prefix, e.label)
}

// New grows the tree for o and emits it. The result is deterministic in
// o: equal Options yield byte-identical programs.
func New(o Options) *Generated {
	o = o.norm()
	root, fns := grow(o)
	g := &Generated{Opts: o, Root: root, Fns: fns}
	g.Prog = Emit(root, fns, o)
	return g
}

// Generate is the convenience one-call form of New.
func Generate(o Options) *prog.Program { return New(o).Prog }

// Emit lowers a tree to a program: called functions first, then the
// driver loop wrapping the body. Every construction preserves the lint
// invariants (see the package comment); when o.Annotate is set the
// candidate annotations collected during emission are synthesized onto
// the program (annotate.go).
func Emit(root *Node, fns []*Fn, o Options) *prog.Program {
	o = o.norm()
	e := &emitter{b: prog.NewBuilder(), o: o, nFns: len(fns)}
	b := e.b
	b.Entry("main")

	// Only functions the tree actually calls are emitted: unreachable
	// code is a lint warning, and a warning is a generator bug.
	called := map[int]bool{}
	collectCalls(root, len(fns), called)
	for i, f := range fns {
		if !called[i] || f.Leaf {
			continue
		}
		// A non-leaf keeps its leaf callee alive.
		if f.Callee >= 0 && f.Callee < len(fns) {
			called[f.Callee] = true
		}
	}
	for i, f := range fns {
		if !called[i] {
			continue
		}
		b.Label(fnName(i))
		lr := newRng(f.Body.Seed)
		if f.Leaf {
			e.stmts(f.Body.N, lr)
			b.Ret()
			continue
		}
		b.Subi(isa.SP, isa.SP, 8)
		b.St(isa.LR, isa.SP, 0)
		e.stmts(f.Body.N, lr)
		b.Call(fnName(f.Callee))
		b.Ld(isa.LR, isa.SP, 0)
		b.Addi(isa.SP, isa.SP, 8)
		b.Ret()
	}

	b.Label("main")
	// Register init: every scratch register and the PRNG register load
	// their starting value from the DataSeed-controlled init table, so
	// reseeding data perturbs every branch outcome and address stream
	// while the code image stays fixed.
	dr := newRng(o.DataSeed)
	initRegs := append([]isa.Reg{regRng}, scratchRegs...)
	for i, r := range initRegs {
		addr := initBase + uint64(i)*8
		b.Ld(r, isa.Zero, int64(addr))
		val := dr.next()
		if r == regRng {
			val |= 1 // odd PRNG state
		}
		b.Word(addr, val)
	}
	b.Li(regIter, int64(o.Iters))
	b.Label("outer")
	e.scramble()
	e.seq(root)
	b.Subi(regIter, regIter, 1)
	b.Br(isa.GT, regIter, isa.Zero, "outer")
	b.St(scratchRegs[0], isa.Zero, resultAddr)
	b.Halt()

	// Sprinkle initial scratch-region words so early loads see data.
	for i := 0; i < 24; i++ {
		b.Word(uint64(scratchBase)+uint64(dr.n(128))*8, dr.next())
	}

	p := b.MustBuild()
	if o.Annotate {
		synthesize(p, e.cands, o)
	}
	return p
}

func fnName(i int) string { return fmt.Sprintf("fn%d", i) }

func collectCalls(n *Node, nFns int, called map[int]bool) {
	if n.Kind == KCall && n.N >= 0 && n.N < nFns {
		called[n.N] = true
	}
	for _, k := range n.Kids {
		collectCalls(k, nFns, called)
	}
}

func (e *emitter) seq(n *Node) {
	for _, k := range n.Kids {
		e.node(k)
	}
}

func (e *emitter) node(n *Node) {
	switch n.Kind {
	case KStmts:
		e.stmts(n.N, newRng(n.Seed))
	case KSeq:
		e.seq(n)
	case KHammock:
		e.hammock(n)
	case KLoop:
		e.loop(n)
	case KCall:
		// A stale callee index (shrink product) emits nothing.
		if n.N >= 0 && n.N < e.nFns {
			e.b.Call(fnName(n.N))
		}
	case KComplex:
		e.complex(n)
	case KBreak, KContinue:
		e.loopJump(n)
	}
}

// cond computes a branch condition into the temporary register: an
// extracted bit group of the PRNG register, giving each branch site its
// own (biased or balanced) outcome stream.
func (e *emitter) cond(lr *rng) {
	bit := int64(10 + lr.n(40))
	e.b.Shri(regTmp, regRng, bit)
	e.b.Andi(regTmp, regTmp, int64(1<<uint(lr.n(3))-1)|1)
}

// scramble advances the PRNG register (an LCG step).
func (e *emitter) scramble() {
	e.b.Muli(regRng, regRng, 6364136223846793005)
	e.b.Addi(regRng, regRng, 1442695040888963407)
}

func (e *emitter) reg(lr *rng) isa.Reg {
	return scratchRegs[lr.n(len(scratchRegs))]
}

// stmts emits n straight-line instructions: ALU traffic over the scratch
// registers, masked scratch-region loads/stores, and PRNG scrambles.
// Nothing here branches; all control flow comes from structure nodes.
func (e *emitter) stmts(n int, lr *rng) {
	b := e.b
	for i := 0; i < n; i++ {
		switch lr.n(9) {
		case 0:
			b.Add(e.reg(lr), e.reg(lr), e.reg(lr))
		case 1:
			b.Xor(e.reg(lr), e.reg(lr), e.reg(lr))
		case 2:
			b.Addi(e.reg(lr), e.reg(lr), int64(lr.n(100)-50))
		case 3:
			b.Muli(e.reg(lr), e.reg(lr), int64(lr.n(7)+1))
		case 4:
			b.Shri(e.reg(lr), e.reg(lr), int64(lr.n(8)))
		case 5:
			b.Sub(e.reg(lr), e.reg(lr), e.reg(lr))
		case 6: // masked scratch-memory access
			b.Andi(regTmp, e.reg(lr), 127)
			b.Shli(regTmp, regTmp, 3)
			if lr.coin(50) {
				b.St(e.reg(lr), regTmp, scratchBase)
			} else {
				b.Ld(e.reg(lr), regTmp, scratchBase)
			}
		case 7:
			e.scramble()
		case 8:
			b.Slt(e.reg(lr), e.reg(lr), e.reg(lr))
		}
	}
}

// hammock emits if / if-else. The join label is a structural CFM
// candidate; occasionally the next instruction after the join is
// recorded as a second (alternate) CFM point, exercising the
// multiple-CFM enhancement.
func (e *emitter) hammock(n *Node) {
	b := e.b
	lr := newRng(n.Seed)
	then := e.fresh("t")
	join := e.fresh("j")
	e.cond(lr)
	br := b.Br(isa.EQ, regTmp, isa.Zero, then)
	e.seq(n.Kids[0])
	if n.Else && len(n.Kids) > 1 {
		b.Jmp(join)
		b.Label(then)
		e.seq(n.Kids[1])
		b.Label(join)
	} else {
		b.Label(then)
	}
	joinPC := b.Here()
	cfms := []cfmRef{{rel: joinPC - br}}
	if lr.coin(25) {
		cfms = append(cfms, cfmRef{rel: joinPC - br + 1})
	}
	e.cands = append(e.cands, candidate{br: br, cfms: cfms})
}

// loop emits a bounded counter loop with its latch at the bottom. The
// backward latch branch is a loop-diverge candidate (Section 2.7.4);
// its CFM must be past the fall-through (lint's cfm-degenerate rule),
// so the first both-path point two past the branch is recorded.
func (e *emitter) loop(n *Node) {
	b := e.b
	if e.depth >= len(loopRegs) {
		// No counter register free (over-deep shrink products): inline
		// one iteration instead of looping.
		e.seq(n.Kids[0])
		return
	}
	rc := loopRegs[e.depth]
	head := e.fresh("lh")
	latch := e.fresh("ll")
	exit := e.fresh("lx")
	b.Li(rc, int64(n.N))
	b.Label(head)
	e.depth++
	e.loops = append(e.loops, loopCtx{latch: latch, exit: exit})
	e.seq(n.Kids[0])
	e.loops = e.loops[:len(e.loops)-1]
	e.depth--
	b.Label(latch)
	b.Subi(rc, rc, 1)
	br := b.Br(isa.GT, rc, isa.Zero, head)
	b.Label(exit)
	e.cands = append(e.cands, candidate{br: br, cfms: []cfmRef{{rel: 2}}})
}

// loopJump emits a conditional break (to the innermost loop's exit) or
// continue (to its latch). Outside any loop — a shape the shrinker can
// produce by hoisting — it emits nothing. Both are forward diverge
// candidates: break reconverges at the loop exit, continue at the latch.
func (e *emitter) loopJump(n *Node) {
	if len(e.loops) == 0 {
		return
	}
	ctx := e.loops[len(e.loops)-1]
	lr := newRng(n.Seed)
	e.cond(lr)
	target := ctx.exit
	if n.Kind == KContinue {
		target = ctx.latch
	}
	br := e.b.Br(isa.NE, regTmp, isa.Zero, target)
	e.cands = append(e.cands, candidate{br: br, cfms: []cfmRef{{label: target}}})
}

// complex emits the paper's "other complex" shape: two branches whose
// regions overlap without proper nesting. Taken flow of the first
// branch lands mid-way through the fall-through flow of the second:
//
//	cond; BR  → A
//	S1
//	cond; BR  → C
//	S2
//	A:  S3
//	C:  S4
//
// The first branch reconverges at A (its taken target, also reachable
// down the fall path through S2), the second at C — merge points that
// interleave rather than nest.
func (e *emitter) complex(n *Node) {
	b := e.b
	lr := newRng(n.Seed)
	la := e.fresh("ca")
	lc := e.fresh("cc")
	e.cond(lr)
	br1 := b.Br(isa.EQ, regTmp, isa.Zero, la)
	e.stmts(1+lr.n(2), lr)
	e.cond(lr)
	br2 := b.Br(isa.NE, regTmp, isa.Zero, lc)
	e.stmts(1+lr.n(2), lr)
	b.Label(la)
	e.stmts(1+lr.n(2), lr)
	b.Label(lc)
	e.stmts(1, lr)
	e.cands = append(e.cands,
		candidate{br: br1, cfms: []cfmRef{{label: la}}},
		candidate{br: br2, cfms: []cfmRef{{label: lc}}})
}
