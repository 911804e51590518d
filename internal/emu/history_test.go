package emu

import (
	"testing"
	"testing/quick"

	"dmp/internal/prog"
)

// historyProg runs a loop that mutates registers and memory every
// iteration, so any rewind error is visible in architectural state.
func historyProg() *prog.Program {
	return prog.MustAssemble(`
        li r1, 7
        li r2, 40
loop:   muli r1, r1, 13
        addi r1, r1, 5
        andi r3, r1, 255
        shli r4, r3, 3
        st r1, 0x4000(r4)
        ld r5, 0x4000(r4)
        add r6, r6, r5
        subi r2, r2, 1
        br.gt r2, zero, loop
        halt`)
}

// snapshotState captures the observable architectural state.
type archState struct {
	regs [32]uint64
	pc   uint64
	cnt  uint64
}

func capture(e *Emulator) archState {
	var s archState
	copy(s.regs[:], e.Regs[:])
	s.pc, s.cnt = e.PC, e.Count
	return s
}

func TestHistoryRewindExact(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory(0)

	var states []archState
	var mems []uint64 // mem[0x4000] probe after each step
	states = append(states, capture(e))
	mems = append(mems, e.Mem.Read(0x4000))
	for i := 0; i < 150 && !e.Halted; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		states = append(states, capture(e))
		mems = append(mems, e.Mem.Read(0x4000))
	}

	// Rewind to several interior points and compare exactly.
	for _, target := range []uint64{120, 77, 30, 1, 0} {
		if err := e.RewindTo(target); err != nil {
			t.Fatalf("RewindTo(%d): %v", target, err)
		}
		got, want := capture(e), states[target]
		if got != want {
			t.Fatalf("rewind to %d: state %+v, want %+v", target, got, want)
		}
		if e.Mem.Read(0x4000) != mems[target] {
			t.Fatalf("rewind to %d: mem probe %d, want %d", target, e.Mem.Read(0x4000), mems[target])
		}
	}
}

func TestHistoryRewindThenReplayMatches(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory(0)
	for i := 0; i < 100; i++ {
		e.Step() //nolint:errcheck
	}
	at100 := capture(e)
	if err := e.RewindTo(40); err != nil {
		t.Fatal(err)
	}
	// Replaying is deterministic: state at 100 must be identical.
	for i := 0; i < 60; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if capture(e) != at100 {
		t.Fatal("replay after rewind diverged")
	}
}

func TestHistoryTrim(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory(0)
	for i := 0; i < 100; i++ {
		e.Step() //nolint:errcheck
	}
	e.TrimHistory(60)
	if e.HistoryLen() != 40 {
		t.Errorf("window = %d, want 40", e.HistoryLen())
	}
	// Rewinding inside the kept window still works...
	if err := e.RewindTo(80); err != nil {
		t.Fatal(err)
	}
	// ...but behind the trim point fails.
	if err := e.RewindTo(59); err == nil {
		t.Error("rewind behind trim succeeded")
	}
	// Rewind to exactly the trim frontier is allowed.
	if err := e.RewindTo(60); err != nil {
		t.Errorf("rewind to trim frontier: %v", err)
	}
}

func TestHistoryTrimThenContinue(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory(0)
	ref := New(historyProg())
	for i := 0; i < 50; i++ {
		e.Step()   //nolint:errcheck
		ref.Step() //nolint:errcheck
	}
	e.TrimHistory(45)
	for !e.Halted {
		e.Step()   //nolint:errcheck
		ref.Step() //nolint:errcheck
	}
	if e.Regs != ref.Regs || e.Count != ref.Count {
		t.Error("history-enabled run diverged from plain run")
	}
}

func TestHistoryErrors(t *testing.T) {
	e := New(historyProg())
	if err := e.RewindTo(0); err == nil {
		t.Error("RewindTo without history succeeded")
	}
	e.EnableHistory(0)
	e.Step() //nolint:errcheck
	if err := e.RewindTo(5); err == nil {
		t.Error("RewindTo beyond Count succeeded")
	}
}

// Property: for random step counts and rewind targets, rewind+replay
// always reconverges with an untouched reference run.
func TestHistoryQuickRewindReplay(t *testing.T) {
	f := func(nRaw, backRaw uint8) bool {
		n := int(nRaw%100) + 10
		e := New(historyProg())
		e.EnableHistory(0)
		ref := New(historyProg())
		for i := 0; i < n && !e.Halted; i++ {
			e.Step()   //nolint:errcheck
			ref.Step() //nolint:errcheck
		}
		back := uint64(backRaw) % (e.Count + 1)
		if err := e.RewindTo(e.Count - back); err != nil {
			return false
		}
		for e.Count < ref.Count {
			if _, err := e.Step(); err != nil {
				return false
			}
		}
		return e.Regs == ref.Regs && e.PC == ref.PC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
