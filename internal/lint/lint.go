// Package lint statically verifies programs and their diverge-branch
// annotations before they reach the simulator.
//
// The paper's mechanism fails quietly, not loudly, when its control-flow
// metadata is wrong: a CFM point that is unreachable (or too far) on one
// side of a diverge branch degrades dynamic predication into wasted
// dual-path fetch, and a malformed program image turns into a wild PC
// deep inside a pipeline run. lint.Program checks the instruction image
// (targets, terminators, reachability, call discipline, register
// def-before-use); lint.Annotations checks every diverge annotation
// against the static CFG (CFM legality within the profiler's distance
// bound, branch-class and loop-flag consistency, nested-region
// containment). Both return structured diagnostics rather than a single
// error so callers — cmd/dmplint, the workload gate test, and the fuzz
// harness — can distinguish hard
// illegality (Severity Error) from suspicious-but-runnable shapes
// (Severity Warning).
//
// The soundness contract, enforced by the fuzz tests in internal/core:
// a program with no Error-severity diagnostics runs to completion on
// internal/emu without faulting.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Severity grades a diagnostic.
type Severity uint8

const (
	// Warning marks a suspicious construct that still executes: dead
	// code, a possibly-uninitialized register read, a discarded link.
	Warning Severity = iota
	// Error marks hard illegality: the program (or annotation) can fault
	// the emulator, hang, or silently break the predication contract.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// NoPC is the PC attached to whole-program diagnostics.
const NoPC = ^uint64(0)

// Diag is one finding.
type Diag struct {
	PC    uint64 // offending instruction, or NoPC
	Check string // stable check identifier, e.g. "cfm-too-far"
	Sev   Severity
	Msg   string
}

func (d Diag) String() string {
	if d.PC == NoPC {
		return fmt.Sprintf("%s: %s: %s", d.Sev, d.Check, d.Msg)
	}
	return fmt.Sprintf("pc %d: %s: %s: %s", d.PC, d.Sev, d.Check, d.Msg)
}

// Diags is a diagnostic list, ordered by PC then check.
type Diags []Diag

// HasErrors reports whether any diagnostic is Error severity.
func (ds Diags) HasErrors() bool {
	for _, d := range ds {
		if d.Sev == Error {
			return true
		}
	}
	return false
}

// Errors returns only the Error-severity diagnostics.
func (ds Diags) Errors() Diags {
	var out Diags
	for _, d := range ds {
		if d.Sev == Error {
			out = append(out, d)
		}
	}
	return out
}

// ByCheck returns the diagnostics for one check id.
func (ds Diags) ByCheck(id string) Diags {
	var out Diags
	for _, d := range ds {
		if d.Check == id {
			out = append(out, d)
		}
	}
	return out
}

func (ds Diags) String() string {
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (ds *Diags) add(pc uint64, check string, sev Severity, format string, args ...any) {
	*ds = append(*ds, Diag{PC: pc, Check: check, Sev: sev, Msg: fmt.Sprintf(format, args...)})
}

func (ds Diags) sorted() Diags {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].PC != ds[j].PC {
			return ds[i].PC < ds[j].PC
		}
		return ds[i].Check < ds[j].Check
	})
	return ds
}

// Options tunes the checks.
type Options struct {
	// MaxDist is the maximum static distance (in instructions) from a
	// diverge branch to each of its CFM points, matching the profiler's
	// dynamic bound. 0 selects the paper's 120.
	MaxDist int
	// StrictUninit reports every register read the must-defined dataflow
	// cannot prove initialized. The default reports only reads of
	// registers never written anywhere in reachable code: workloads
	// deliberately accumulate into zero-initialized registers, so the
	// path-sensitive result is advisory while an orphan read is almost
	// certainly a register-name typo.
	StrictUninit bool
}

func (o Options) norm() Options {
	if o.MaxDist <= 0 {
		o.MaxDist = 120 // profile.DefaultOptions().MaxDist
	}
	return o
}

// Check runs Program and, when the image itself is error-free,
// Annotations on a freshly built CFG. It is the one-call entry point used
// by cmd/dmplint.
func Check(p *prog.Program, opts Options) Diags {
	ds := program(p, opts)
	if ds.HasErrors() {
		return ds
	}
	ds = append(ds, Annotations(p, prog.BuildCFG(p), opts)...)
	return ds.sorted()
}

// Program checks the static well-formedness of the instruction image
// with default options. It subsumes prog.Program.Validate and adds
// reachability, terminator, call-discipline and def-before-use analysis.
func Program(p *prog.Program) Diags {
	return program(p, Options{})
}

func program(p *prog.Program, opts Options) Diags {
	var ds Diags
	n := uint64(len(p.Code))
	if n == 0 {
		ds.add(NoPC, "empty", Error, "program has no instructions")
		return ds
	}

	// Opcode validity and direct-target ranges; note HALT presence.
	halted := false
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			ds.add(uint64(pc), "opcode", Error, "invalid opcode %d", uint8(in.Op))
			continue
		}
		switch in.Op {
		case isa.BR, isa.JMP, isa.CALL:
			if in.Target >= n {
				ds.add(uint64(pc), "target-range", Error,
					"%v targets %d outside code (len %d)", in, in.Target, n)
			}
		case isa.HALT:
			halted = true
		}
	}
	if !halted {
		ds.add(NoPC, "no-halt", Error, "program has no HALT instruction")
	}
	if p.Entry >= n {
		ds.add(NoPC, "entry-range", Error, "entry %d outside code (len %d)", p.Entry, n)
	}
	if ds.HasErrors() {
		// The graph analyses below assume in-range targets.
		return ds.sorted()
	}

	// Terminator sanity: the last instruction must not fall through off
	// the end of the code image.
	if last := p.Code[n-1]; canFallThrough(last.Op) {
		ds.add(n-1, "fallthrough-end", Error,
			"%v falls through off the end of the code image", last)
	}

	g := buildGraph(p)

	// Reachability from the entry. Unreachable code executes never, so it
	// is a Warning: wasted image, likely generator bug, but harmless.
	// Indirect jumps and calls can target any labelled PC, so programs
	// that use them get every label as an extra root.
	roots := []uint64{p.Entry}
	for _, in := range p.Code {
		if in.Op == isa.JR || in.Op == isa.CALLR {
			for _, pc := range p.Labels {
				roots = append(roots, pc)
			}
			break
		}
	}
	reach := g.reachableFrom(roots)
	cfg := prog.BuildCFG(p)
	for _, b := range cfg.Blocks {
		if !reach[b.Start] {
			ds.add(b.Start, "unreachable", Warning,
				"block [%d,%d) is unreachable from entry %d", b.Start, b.End, p.Entry)
		}
	}

	// Exit reachability: every reachable instruction must be able to
	// reach a HALT (or leave the static graph through RET/JR, whose
	// continuation the caller provides). A reachable instruction with no
	// static path to an exit hangs the machine, so it is an Error.
	canExit := g.reachesExit()
	for pc := uint64(0); pc < n; pc++ {
		if reach[pc] && !canExit[pc] {
			bi := cfg.BlockOf(pc)
			b := cfg.Blocks[bi]
			if pc == b.Start { // one diagnostic per block, not per instruction
				ds.add(pc, "no-exit-path", Error,
					"block [%d,%d) cannot reach HALT or a return", b.Start, b.End)
			}
		}
	}

	// Call discipline.
	ds = append(ds, checkCalls(p, g, reach)...)

	// Register def-before-use (registers architecturally read as zero
	// before the first write, so this is advisory).
	ds = append(ds, checkDefBeforeUse(p, cfg, reach, opts.StrictUninit)...)

	return ds.sorted()
}

func canFallThrough(op isa.Op) bool {
	switch op {
	case isa.JMP, isa.JR, isa.RET, isa.HALT:
		return false
	}
	return true
}

// checkCalls verifies the CALL/RET pairing discipline: calls must keep
// their link (a discarded link register makes the callee's RET a wild
// jump), and every called function must be able to return or halt.
func checkCalls(p *prog.Program, g *graph, reach map[uint64]bool) Diags {
	var ds Diags
	targets := map[uint64]uint64{} // callee entry -> one representative call site
	for pc, in := range p.Code {
		switch in.Op {
		case isa.CALL, isa.CALLR:
			if !reach[uint64(pc)] {
				continue
			}
			if in.Dst == isa.Zero {
				ds.add(uint64(pc), "call-discards-link", Warning,
					"%v discards its link register; the callee cannot return here", in)
			}
			if in.Op == isa.CALL {
				if _, ok := targets[in.Target]; !ok {
					targets[in.Target] = uint64(pc)
				}
			}
		case isa.RET:
			if reach[uint64(pc)] && in.Src1 == isa.Zero {
				ds.add(uint64(pc), "ret-zero", Warning,
					"ret reads the zero register and always jumps to PC 0")
			}
		}
	}
	// Each callee must reach RET, HALT or an indirect jump without
	// entering nested callees (nested calls are collapsed).
	for entry, site := range targets {
		if !calleeReturns(p, entry) {
			ds.add(entry, "callee-no-return", Warning,
				"function called from pc %d never reaches ret/halt", site)
		}
	}
	return ds
}

// calleeReturns walks the intra-procedural flow from a function entry
// (collapsing nested calls to their fall-through) looking for any RET,
// HALT, or indirect jump.
func calleeReturns(p *prog.Program, entry uint64) bool {
	n := uint64(len(p.Code))
	seen := map[uint64]bool{}
	stack := []uint64{entry}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc >= n || seen[pc] {
			continue
		}
		seen[pc] = true
		in := p.Code[pc]
		switch in.Op {
		case isa.RET, isa.HALT, isa.JR:
			return true
		case isa.JMP:
			stack = append(stack, in.Target)
		case isa.BR:
			stack = append(stack, in.Target, pc+1)
		default: // includes CALL/CALLR collapsed to their return point
			stack = append(stack, pc+1)
		}
	}
	return false
}

// checkDefBeforeUse runs a forward must-defined dataflow over the CFG
// and warns on register reads that may happen before any write.
// Registers read as zero until written, so relying on that is legal and
// the workloads do it deliberately (zero-initialized accumulators); by
// default only reads of registers never written anywhere reachable are
// reported ("undef-read", a near-certain typo), while strict mode also
// reports everything the dataflow cannot prove defined ("maybe-undef").
func checkDefBeforeUse(p *prog.Program, cfg *prog.CFG, reach map[uint64]bool, strict bool) Diags {
	var ds Diags
	n := len(cfg.Blocks)
	if n == 0 {
		return ds
	}
	const allDefined = ^uint32(0)

	// preds from the CFG's forward edges.
	preds := make([][]int, n)
	for i, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], i)
		}
	}
	entryBlock := cfg.BlockOf(p.Entry)

	// in/out are bitmasks of must-defined registers. Everything starts
	// "all defined" except the entry, per standard must-analysis; blocks
	// with no predecessors (function entries reached through CALL, which
	// the CFG does not edge) stay all-defined, i.e. exempt.
	in := make([]uint32, n)
	out := make([]uint32, n)
	for i := range out {
		out[i] = allDefined
	}
	entryDefs := uint32(1<<isa.Zero | 1<<isa.SP) // emulator initializes SP

	transfer := func(i int, defs uint32) uint32 {
		b := cfg.Blocks[i]
		for pc := b.Start; pc < b.End; pc++ {
			inst := p.Code[pc]
			if inst.HasDst() {
				defs |= 1 << inst.Dst
			}
		}
		return defs
	}

	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			var newIn uint32
			switch {
			case i == entryBlock:
				// Program start guarantees only the initial registers;
				// a back-edge into the entry can only shrink that.
				newIn = entryDefs
				for _, pb := range preds[i] {
					newIn &= out[pb]
				}
			case len(preds[i]) == 0:
				// Function entries reached through CALL (the CFG has no
				// call edges) are exempt: the caller's state is unknown.
				newIn = allDefined
			default:
				newIn = allDefined
				for _, pb := range preds[i] {
					newIn &= out[pb]
				}
			}
			newOut := transfer(i, newIn)
			if newIn != in[i] || newOut != out[i] {
				in[i], out[i] = newIn, newOut
				changed = true
			}
		}
	}

	// Registers written by any reachable instruction: reads of the rest
	// can never observe anything but zero, a near-certain typo.
	writtenAnywhere := uint32(1<<isa.Zero | 1<<isa.SP)
	for pc := range p.Code {
		if reach[uint64(pc)] && p.Code[pc].HasDst() {
			writtenAnywhere |= 1 << p.Code[pc].Dst
		}
	}

	warned := map[isa.Reg]bool{} // one warning per register keeps output readable
	for i, b := range cfg.Blocks {
		if !reach[b.Start] {
			continue
		}
		defs := in[i]
		for pc := b.Start; pc < b.End; pc++ {
			inst := p.Code[pc]
			for _, src := range [2]struct {
				use bool
				r   isa.Reg
			}{{inst.Uses1(), inst.Src1}, {inst.Uses2(), inst.Src2}} {
				if !src.use || src.r == isa.Zero || defs&(1<<src.r) != 0 || warned[src.r] {
					continue
				}
				switch {
				case writtenAnywhere&(1<<src.r) == 0:
					warned[src.r] = true
					ds.add(pc, "undef-read", Warning,
						"%v reads %s, which no reachable instruction ever writes", inst, src.r)
				case strict:
					warned[src.r] = true
					ds.add(pc, "maybe-undef", Warning,
						"%v reads %s before any write on some path (reads as zero)",
						inst, src.r)
				}
			}
			if inst.HasDst() {
				defs |= 1 << inst.Dst
			}
		}
	}
	return ds
}
