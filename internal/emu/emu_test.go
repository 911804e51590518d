package emu

import (
	"testing"
	"testing/quick"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read(0x1000) != 0 {
		t.Error("fresh memory not zero")
	}
	m.Write(0x1000, 42)
	if m.Read(0x1000) != 42 {
		t.Error("read-after-write failed")
	}
	// Unaligned access rounds down to the word.
	m.Write(0x1005, 7)
	if m.Read(0x1000) != 7 {
		t.Error("unaligned write did not alias word")
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr, val uint64) bool {
		m.Write(addr, val)
		return m.Read(addr) == val && m.Read(addr&^7) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.Write(8, 1)
	c := m.Clone()
	c.Write(8, 2)
	m.Write(16, 3)
	if m.Read(8) != 1 || c.Read(8) != 2 {
		t.Error("clone not independent on existing page")
	}
	if c.Read(16) != 0 {
		t.Error("clone saw later write to original")
	}
}

func TestMemorySparseDistantPages(t *testing.T) {
	m := NewMemory()
	addrs := []uint64{0, 1 << 20, 1 << 40, 1<<63 - 8}
	for i, a := range addrs {
		m.Write(a, uint64(i+1))
	}
	for i, a := range addrs {
		if m.Read(a) != uint64(i+1) {
			t.Errorf("addr %#x = %d, want %d", a, m.Read(a), i+1)
		}
	}
}

func TestEmulatorArithmetic(t *testing.T) {
	p := prog.MustAssemble(`
        li r1, 6
        li r2, 7
        mul r3, r1, r2
        addi r3, r3, 0x100
        halt`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[3] != 42+0x100 {
		t.Errorf("r3 = %d, want %d", e.Regs[3], 42+0x100)
	}
	if !e.Halted {
		t.Error("not halted")
	}
	if e.Count != 5 {
		t.Errorf("count = %d, want 5", e.Count)
	}
}

func TestEmulatorZeroRegister(t *testing.T) {
	p := prog.MustAssemble(`
        li r0, 99
        add r1, r0, r0
        halt`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[0] != 0 || e.Regs[1] != 0 {
		t.Errorf("zero register broke: r0=%d r1=%d", e.Regs[0], e.Regs[1])
	}
}

func TestEmulatorLoadStore(t *testing.T) {
	p := prog.MustAssemble(`
        li r1, 0x2000
        li r2, 1234
        st r2, 8(r1)
        ld r3, 8(r1)
        ld r4, (r1)
        halt
        .word 0x2000 55`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[3] != 1234 {
		t.Errorf("r3 = %d, want 1234", e.Regs[3])
	}
	if e.Regs[4] != 55 {
		t.Errorf("r4 = %d, want 55 (initial data)", e.Regs[4])
	}
}

func TestEmulatorBranchLoop(t *testing.T) {
	p := prog.MustAssemble(`
        li r1, 5
        li r2, 0
loop:   add r2, r2, r1
        subi r1, r1, 1
        br.gt r1, zero, loop
        halt`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[2] != 15 {
		t.Errorf("sum = %d, want 15", e.Regs[2])
	}
}

func TestEmulatorCallRet(t *testing.T) {
	p := prog.MustAssemble(`
        .entry main
double: add r1, r1, r1
        ret
main:   li r1, 21
        call double
        halt`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[1] != 42 {
		t.Errorf("r1 = %d, want 42", e.Regs[1])
	}
}

func TestEmulatorIndirectCallAndJump(t *testing.T) {
	p := prog.MustAssemble(`
        .entry main
fn:     li r2, 7
        ret
main:   li r5, 0        ; fn is at PC 0
        callr r5
        li r6, 3        ; unused
        li r7, 7        ; PC of the halt
        jr r7
        halt`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[2] != 7 {
		t.Errorf("r2 = %d, want 7", e.Regs[2])
	}
}

func TestEmulatorStepRecords(t *testing.T) {
	p := prog.MustAssemble(`
        li r1, 3
        br.eq r1, zero, skip
        st r1, 0x40(zero)
skip:   halt`)
	e := New(p)
	s1, _ := e.Step()
	if !s1.WroteReg || s1.Reg != 1 || s1.RegVal != 3 {
		t.Errorf("li step = %+v", s1)
	}
	s2, _ := e.Step()
	if s2.Taken || s2.NextPC != 2 {
		t.Errorf("br step = %+v", s2)
	}
	s3, _ := e.Step()
	if !s3.IsStore || s3.Addr != 0x40 || s3.MemVal != 3 {
		t.Errorf("st step = %+v", s3)
	}
	s4, _ := e.Step()
	if !s4.Halted {
		t.Errorf("halt step = %+v", s4)
	}
	if _, err := e.Step(); err == nil {
		t.Error("step after halt succeeded")
	}
}

func TestEmulatorRunMax(t *testing.T) {
	p := prog.MustAssemble(`
loop:   addi r1, r1, 1
        jmp loop
        halt`)
	e := New(p)
	n, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("ran %d, want 100", n)
	}
	if e.Halted {
		t.Error("halted unexpectedly")
	}
}

func TestEmulatorRunFuncEarlyStop(t *testing.T) {
	p := prog.MustAssemble(`
loop:   addi r1, r1, 1
        jmp loop
        halt`)
	e := New(p)
	steps := 0
	err := e.RunFunc(0, func(Step) bool {
		steps++
		return steps < 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 7 {
		t.Errorf("steps = %d, want 7", steps)
	}
}

func TestEmulatorPCOutsideCode(t *testing.T) {
	p := prog.MustAssemble("halt")
	e := New(p)
	e.PC = 50
	if _, err := e.Step(); err == nil {
		t.Error("step outside code succeeded")
	}
}

func TestEmulatorInitialState(t *testing.T) {
	p := prog.MustAssemble("halt\n.word 0x800 11")
	e := New(p)
	if e.Reg(isa.SP) != p.StackBase {
		t.Errorf("sp = %d, want %d", e.Reg(isa.SP), p.StackBase)
	}
	if e.Mem.Read(0x800) != 11 {
		t.Error("initial data not loaded")
	}
	if e.Reg(isa.Zero) != 0 {
		t.Error("zero register non-zero")
	}
}

func TestEmulatorStackDiscipline(t *testing.T) {
	// Push two values, pop them back in reverse.
	p := prog.MustAssemble(`
        li r1, 111
        li r2, 222
        subi sp, sp, 16
        st r1, (sp)
        st r2, 8(sp)
        ld r3, 8(sp)
        ld r4, (sp)
        addi sp, sp, 16
        halt`)
	e := New(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Regs[3] != 222 || e.Regs[4] != 111 {
		t.Errorf("stack pops: r3=%d r4=%d", e.Regs[3], e.Regs[4])
	}
	if e.Reg(isa.SP) != p.StackBase {
		t.Error("sp not restored")
	}
}
