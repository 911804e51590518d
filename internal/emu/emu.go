package emu

import (
	"fmt"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Step describes one architecturally executed instruction: what it was,
// what it produced, and where control went. The fetch oracle's history
// logs each Step's result for the out-of-order core's retirement check
// (Logged); the profiler consumes Steps as a stream.
type Step struct {
	PC   uint64
	Inst isa.Inst
	// NextPC is the PC of the next instruction.
	NextPC uint64
	// Taken is meaningful for conditional branches.
	Taken bool
	// WroteReg / RegVal record the destination register write, if any.
	WroteReg bool
	Reg      isa.Reg
	RegVal   uint64
	// Mem access, if any.
	IsLoad, IsStore bool
	Addr, MemVal    uint64
	// Halted is set when the instruction was a HALT.
	Halted bool
}

// Emulator executes a program architecturally, one instruction per Step
// call. It is deterministic and has no timing.
type Emulator struct {
	Prog *prog.Program
	Regs [isa.NumRegs]uint64
	Mem  *Memory
	PC   uint64
	// Count is the number of instructions executed so far.
	Count uint64
	// Halted is set once HALT executes; further Steps return an error.
	Halted bool

	hist *History
	// Excursion scratch: the wrong-path store overlay and the record
	// handed to the callback, reused across excursions.
	overlay map[uint64]uint64
	wp      Step
}

// New returns an emulator at the program entry with initial data memory
// loaded and the stack pointer set.
func New(p *prog.Program) *Emulator {
	e := &Emulator{Prog: p, Mem: NewMemory(), PC: p.Entry}
	for addr, val := range p.Data {
		e.Mem.Write(addr, val)
	}
	e.Regs[isa.SP] = p.StackBase
	return e
}

// Clone returns an independent copy of the emulator (used by the fetch
// oracle when it needs to checkpoint around speculative regions in tests).
func (e *Emulator) Clone() *Emulator {
	c := *e
	c.Mem = e.Mem.Clone()
	c.hist = nil    // history does not transfer across clones
	c.overlay = nil // nor does excursion scratch
	return &c
}

// Reg returns a register value (the zero register always reads zero).
func (e *Emulator) Reg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return e.Regs[r]
}

func (e *Emulator) setReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		e.Regs[r] = v
	}
}

// Step executes one instruction and returns its Step record. Executing
// past a HALT or outside the code image returns an error: the golden
// model must never run wild, so this is a hard failure for the caller.
func (e *Emulator) Step() (Step, error) {
	var s Step
	err := e.StepInto(&s)
	return s, err
}

// StepInto is Step writing the record into a caller-owned *s, which hot
// loops reuse from one instruction to the next. Every field is written,
// so nothing carries over from the previous instruction; on an error *s
// is the zero Step.
//
//dmp:hotpath
func (e *Emulator) StepInto(s *Step) error {
	if e.Halted {
		*s = Step{}
		return fmt.Errorf("emu: step after halt")
	}
	if !e.Prog.InCode(e.PC) {
		*s = Step{}
		return fmt.Errorf("emu: pc %d outside code image", e.PC)
	}
	in := &e.Prog.Code[e.PC]
	var rec *histStep
	if e.hist != nil {
		rec = e.hist.recordStep(e, in.Dst)
	}
	s.PC, s.Inst, s.NextPC = e.PC, *in, e.PC+1
	s.Taken, s.Halted = false, false
	s.WroteReg, s.Reg, s.RegVal = false, 0, 0
	s.IsLoad, s.IsStore, s.Addr, s.MemVal = false, false, 0, 0

	switch {
	case in.IsALU():
		v := isa.EvalALU(*in, e.Reg(in.Src1), e.Reg(in.Src2))
		e.setReg(in.Dst, v)
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, v
	case in.Op == isa.LD:
		addr := e.Reg(in.Src1) + uint64(in.Imm)
		v := e.Mem.Read(addr)
		e.setReg(in.Dst, v)
		s.IsLoad, s.Addr, s.MemVal = true, addr, v
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, v
	case in.Op == isa.ST:
		addr := e.Reg(in.Src1) + uint64(in.Imm)
		v := e.Reg(in.Src2)
		if e.hist != nil {
			e.hist.recordWrite(addr, e.Mem.Read(addr))
		}
		e.Mem.Write(addr, v)
		s.IsStore, s.Addr, s.MemVal = true, addr, v
	case in.Op == isa.BR:
		s.Taken = in.Cond.Eval(e.Reg(in.Src1), e.Reg(in.Src2))
		if s.Taken {
			s.NextPC = in.Target
		}
	case in.Op == isa.JMP:
		s.NextPC = in.Target
	case in.Op == isa.JR:
		s.NextPC = e.Reg(in.Src1)
	case in.Op == isa.CALL:
		e.setReg(in.Dst, e.PC+1)
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, e.PC+1
		s.NextPC = in.Target
	case in.Op == isa.CALLR:
		target := e.Reg(in.Src1)
		e.setReg(in.Dst, e.PC+1)
		s.WroteReg, s.Reg, s.RegVal = true, in.Dst, e.PC+1
		s.NextPC = target
	case in.Op == isa.RET:
		s.NextPC = e.Reg(in.Src1)
	case in.Op == isa.HALT:
		s.Halted = true
		e.Halted = true
		s.NextPC = e.PC
	case in.Op == isa.NOP:
		// nothing
	default:
		*s = Step{}
		return fmt.Errorf("emu: pc %d: unimplemented op %v", e.PC, in.Op)
	}

	e.PC = s.NextPC
	e.Count++
	if rec != nil {
		rec.val = s.RegVal
		if s.IsStore {
			rec.val = s.MemVal
		}
	}
	return nil
}

// Excursion speculatively executes from pc for up to max instructions
// without disturbing the emulator: registers are copied, stores land in
// a private overlay, and loads see the overlay first and committed
// memory second. fn receives each step; returning false stops the walk.
// The record fn receives is reused for the next step and must not be
// retained. Execution also stops silently at a HALT, at any PC outside
// the code image, or on an op Step would reject — a wrong path may run
// anywhere, and the caller (wrong-path runahead warming) wants "stop",
// not an error. The emulator's own Regs, Mem, PC, and Count are
// untouched. The overlay map is kept on the emulator and emptied at the
// start of every excursion, so no store of one excursion is visible to
// the next.
//
//dmp:hotpath
func (e *Emulator) Excursion(pc uint64, max int, fn func(*Step) bool) {
	regs := e.Regs
	regs[isa.Zero] = 0 // zeroed again after every instruction, so r0 reads 0 and writes to it are discarded
	overlay := e.overlay
	clear(overlay)
	s := &e.wp
	for n := 0; n < max; n++ {
		if !e.Prog.InCode(pc) {
			return
		}
		in := &e.Prog.Code[pc]
		s.PC, s.Inst, s.NextPC = pc, *in, pc+1
		s.Taken, s.IsLoad, s.IsStore, s.Addr = false, false, false, 0
		switch {
		case in.IsALU():
			regs[in.Dst] = isa.EvalALU(*in, regs[in.Src1], regs[in.Src2])
		case in.Op == isa.LD:
			addr := regs[in.Src1] + uint64(in.Imm)
			v, ok := overlay[addr>>3]
			if !ok {
				v = e.Mem.Read(addr)
			}
			regs[in.Dst] = v
			s.IsLoad, s.Addr = true, addr
		case in.Op == isa.ST:
			addr := regs[in.Src1] + uint64(in.Imm)
			if overlay == nil {
				overlay = map[uint64]uint64{} //dmp:allow hotalloc -- once per emulator; later excursions reuse it
				e.overlay = overlay
			}
			overlay[addr>>3] = regs[in.Src2]
			s.IsStore, s.Addr = true, addr
		case in.Op == isa.BR:
			s.Taken = in.Cond.Eval(regs[in.Src1], regs[in.Src2])
			if s.Taken {
				s.NextPC = in.Target
			}
		case in.Op == isa.JMP:
			s.NextPC = in.Target
		case in.Op == isa.JR:
			s.NextPC = regs[in.Src1]
		case in.Op == isa.CALL:
			regs[in.Dst] = pc + 1
			s.NextPC = in.Target
		case in.Op == isa.CALLR:
			t := regs[in.Src1]
			regs[in.Dst] = pc + 1
			s.NextPC = t
		case in.Op == isa.RET:
			s.NextPC = regs[in.Src1]
		case in.Op == isa.NOP:
			// nothing
		default:
			return // HALT or unimplemented: the wrong path ends here
		}
		regs[isa.Zero] = 0
		if !fn(s) {
			return
		}
		pc = s.NextPC
	}
}

// Run executes until HALT or until max instructions have executed (0
// means no limit). It returns the number of instructions executed.
func (e *Emulator) Run(max uint64) (uint64, error) {
	start := e.Count
	var s Step
	for !e.Halted {
		if max != 0 && e.Count-start >= max {
			break
		}
		if err := e.StepInto(&s); err != nil {
			return e.Count - start, err
		}
	}
	return e.Count - start, nil
}

// RunFunc executes until HALT or max instructions, invoking fn on every
// step. If fn returns false, execution stops early.
func (e *Emulator) RunFunc(max uint64, fn func(Step) bool) error {
	start := e.Count
	var s Step
	for !e.Halted {
		if max != 0 && e.Count-start >= max {
			return nil
		}
		if err := e.StepInto(&s); err != nil {
			return err
		}
		if !fn(s) {
			return nil
		}
	}
	return nil
}
