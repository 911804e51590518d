package emu

import (
	"slices"
	"testing"

	"dmp/internal/isa"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

func refPrograms(t *testing.T) map[string]*prog.Program {
	t.Helper()
	progs := map[string]*prog.Program{}
	for _, w := range workload.All() {
		progs[w.Name] = w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: 1})
	}
	if len(progs) != 15 {
		t.Fatalf("%d workloads, want 15", len(progs))
	}
	return progs
}

// TestStepIntoMatchesStep runs every workload to completion twice, once
// through Step (a fresh record per instruction) and once through
// StepInto into a single reused record that starts out filled with junk:
// the records must agree at every step, so StepInto overwrites every
// field and nothing leaks from one instruction into the next.
func TestStepIntoMatchesStep(t *testing.T) {
	for name, p := range refPrograms(t) {
		a, b := New(p), New(p)
		rec := Step{PC: 1, Inst: isa.Inst{Op: isa.ST, Imm: 9, Target: 9}, NextPC: 1, Taken: true,
			WroteReg: true, Reg: 3, RegVal: 9, IsLoad: true, IsStore: true, Addr: 9, MemVal: 9, Halted: true}
		for n := 0; !a.Halted; n++ {
			want, errA := a.Step()
			errB := b.StepInto(&rec)
			if errA != nil || errB != nil {
				t.Fatalf("%s step %d: Step error %v, StepInto error %v", name, n, errA, errB)
			}
			if rec != want {
				t.Fatalf("%s step %d: StepInto %+v\nStep %+v", name, n, rec, want)
			}
		}
		if !b.Halted || a.Count != b.Count || a.Regs != b.Regs {
			t.Errorf("%s: emulators diverged (counts %d, %d)", name, a.Count, b.Count)
		}
	}
}

// TestStepIntoErrorLeavesZeroRecord pins that every error path zeroes
// the caller's record instead of leaving the previous instruction in it.
func TestStepIntoErrorLeavesZeroRecord(t *testing.T) {
	full := Step{PC: 4, NextPC: 5, Taken: true, WroteReg: true, RegVal: 1, IsLoad: true, Addr: 8, Halted: true}

	halted := New(prog.MustAssemble("halt"))
	if _, err := halted.Run(0); err != nil {
		t.Fatal(err)
	}
	outside := New(prog.MustAssemble("halt"))
	outside.PC = 50
	badOp := prog.MustAssemble("nop\nhalt")
	badOp.Code[0].Op = isa.Op(250)

	for name, e := range map[string]*Emulator{"after halt": halted, "outside code": outside, "unimplemented op": New(badOp)} {
		rec := full
		if err := e.StepInto(&rec); err == nil {
			t.Errorf("%s: StepInto succeeded", name)
		}
		if rec != (Step{}) {
			t.Errorf("%s: record after error = %+v, want zero", name, rec)
		}
	}
}

// refExcursion is Excursion as first written: a fresh overlay map per
// excursion and each record passed by value. The reusing Excursion must
// deliver exactly its callback stream.
func refExcursion(e *Emulator, pc uint64, max int, fn func(Step) bool) {
	regs := e.Regs
	var overlay map[uint64]uint64
	reg := func(r isa.Reg) uint64 {
		if r == isa.Zero {
			return 0
		}
		return regs[r]
	}
	setReg := func(r isa.Reg, v uint64) {
		if r != isa.Zero {
			regs[r] = v
		}
	}
	for n := 0; n < max; n++ {
		if !e.Prog.InCode(pc) {
			return
		}
		in := e.Prog.Code[pc]
		s := Step{PC: pc, Inst: in, NextPC: pc + 1}
		switch {
		case in.IsALU():
			setReg(in.Dst, isa.EvalALU(in, reg(in.Src1), reg(in.Src2)))
		case in.Op == isa.LD:
			addr := reg(in.Src1) + uint64(in.Imm)
			v, ok := overlay[addr>>3]
			if !ok {
				v = e.Mem.Read(addr)
			}
			setReg(in.Dst, v)
			s.IsLoad, s.Addr = true, addr
		case in.Op == isa.ST:
			addr := reg(in.Src1) + uint64(in.Imm)
			if overlay == nil {
				overlay = map[uint64]uint64{}
			}
			overlay[addr>>3] = reg(in.Src2)
			s.IsStore, s.Addr = true, addr
		case in.Op == isa.BR:
			s.Taken = in.Cond.Eval(reg(in.Src1), reg(in.Src2))
			if s.Taken {
				s.NextPC = in.Target
			}
		case in.Op == isa.JMP:
			s.NextPC = in.Target
		case in.Op == isa.JR:
			s.NextPC = reg(in.Src1)
		case in.Op == isa.CALL:
			setReg(in.Dst, pc+1)
			s.NextPC = in.Target
		case in.Op == isa.CALLR:
			t := reg(in.Src1)
			setReg(in.Dst, pc+1)
			s.NextPC = t
		case in.Op == isa.RET:
			s.NextPC = reg(in.Src1)
		case in.Op == isa.NOP:
		default:
			return
		}
		if !fn(s) {
			return
		}
		pc = s.NextPC
	}
}

// TestExcursionMatchesReference walks every workload and, at each
// conditional branch, takes back-to-back excursions down the path not
// taken and down the path taken, as functional warming does. Each
// excursion's callback stream must equal the reference's, though the
// overlay and the record are reused across all of them.
func TestExcursionMatchesReference(t *testing.T) {
	const depth = 256
	for name, p := range refPrograms(t) {
		e := New(p)
		var got, want []Step
		var st Step
		for !e.Halted {
			if err := e.StepInto(&st); err != nil {
				t.Fatal(err)
			}
			if st.Inst.Op != isa.BR {
				continue
			}
			for _, pc := range []uint64{st.PC + 1, st.Inst.Target} {
				got, want = got[:0], want[:0]
				e.Excursion(pc, depth, func(s *Step) bool { got = append(got, *s); return true })
				refExcursion(e, pc, depth, func(s Step) bool { want = append(want, s); return true })
				if !slices.Equal(got, want) {
					t.Fatalf("%s: excursion from pc %d at step %d differs from the reference (%d vs %d steps)",
						name, pc, e.Count, len(got), len(want))
				}
			}
		}
	}
}

// TestExcursionStoresDoNotLeak pins the overlay reset: a store made on
// one excursion is visible to that excursion's later loads, and never to
// a following excursion, which must read committed memory.
func TestExcursionStoresDoNotLeak(t *testing.T) {
	p := prog.MustAssemble(`
        li r1, 0x100
        li r2, 0x77
        halt
        st r2, 0(r1)    ; pc 3: the storing excursion starts here
        ld r3, 0(r1)
        ld r4, 0(r3)    ; address = the value just loaded
        halt
        ld r3, 0(r1)    ; pc 7: the loading excursion starts here
        ld r4, 0(r3)
        halt
        .word 0x100 0x5`)
	e := New(p)
	if _, err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	lastAddr := func(pc uint64) uint64 {
		var addr uint64
		e.Excursion(pc, 8, func(s *Step) bool {
			if s.IsLoad {
				addr = s.Addr
			}
			return true
		})
		return addr
	}
	for i := 0; i < 2; i++ {
		if got := lastAddr(3); got != 0x77 {
			t.Fatalf("round %d: load after the excursion's own store read address %#x, want 0x77", i, got)
		}
		if got := lastAddr(7); got != 0x5 {
			t.Fatalf("round %d: next excursion read address %#x, want committed 0x5 (overlay leaked)", i, got)
		}
	}
	if e.Mem.Read(0x100) != 0x5 {
		t.Error("excursion store reached committed memory")
	}
}
