package emu

import (
	"testing"

	"dmp/internal/prog"
)

// chaseProg touches several widely separated memory pages each iteration,
// so checkpoints exercise the sparse Memory's page map, not just one page.
func chaseProg(iters int64) *prog.Program {
	return prog.MustAssemble(`
        li r1, ` + itoa(iters) + `
        li r2, 0x10          ; near page
        li r3, 0x100000      ; ~1MB
        li r4, 0x4000000000  ; ~256GB
loop:   ld r5, 0(r2)
        addi r5, r5, 1
        st r5, 0(r2)
        st r5, 0(r3)
        st r5, 8(r4)
        addi r2, r2, 8
        addi r3, r3, 64
        subi r1, r1, 1
        br.gt r1, zero, loop
        halt`)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCheckpointRestoreRoundTrip pins that an emulator restored from a
// checkpoint finishes with exactly the state of the one that kept
// running, across repeated checkpoint/restore hops: the sampler restores
// a machine, its fetch oracle, and its checker from each checkpoint while
// the warmer that produced it keeps going.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	p := chaseProg(200)
	ref := New(p)
	if _, err := ref.Run(0); err != nil {
		t.Fatal(err)
	}

	// Hop a fresh emulator through checkpoints every 100 instructions.
	cur := New(p)
	var hops int
	for !cur.Halted {
		if _, err := cur.Run(100); err != nil {
			t.Fatal(err)
		}
		cur = NewFromCheckpoint(p, cur.Checkpoint())
		hops++
	}
	if hops < 5 {
		t.Fatalf("only %d checkpoint hops; program too short for the test", hops)
	}
	if cur.Count != ref.Count {
		t.Fatalf("restored chain executed %d instructions, reference %d", cur.Count, ref.Count)
	}
	if cur.Regs != ref.Regs {
		t.Errorf("register files differ after checkpoint chain")
	}
	ref.Mem.Each(func(addr, val uint64) {
		if got := cur.Mem.Read(addr); got != val {
			t.Errorf("mem[%#x] = %d, want %d", addr, got, val)
		}
	})
}

// TestCheckpointOutlivesEmulator pins the deep-copy contract: a
// checkpoint taken mid-run must not see the source emulator's later
// stores (and vice versa), including on pages created after the snapshot.
func TestCheckpointOutlivesEmulator(t *testing.T) {
	p := chaseProg(100)
	e := New(p)
	if _, err := e.Run(300); err != nil {
		t.Fatal(err)
	}
	ck := e.Checkpoint()
	before := map[uint64]uint64{}
	ck.Mem.Each(func(addr, val uint64) { before[addr] = val })

	if _, err := e.Run(0); err != nil { // run source to halt
		t.Fatal(err)
	}
	after := 0
	ck.Mem.Each(func(addr, val uint64) {
		if before[addr] != val {
			t.Errorf("checkpoint mem[%#x] changed %d -> %d after source kept running", addr, before[addr], val)
		}
		after++
	})
	if after != len(before) {
		t.Errorf("checkpoint page set changed: %d words, had %d", after, len(before))
	}

	// Restored emulators are mutually independent too.
	a, b := NewFromCheckpoint(p, ck), NewFromCheckpoint(p, ck)
	a.Mem.Write(0x10, 0xdead)
	if b.Mem.Read(0x10) == 0xdead {
		t.Error("two emulators restored from one checkpoint share memory")
	}
}

// TestExcursionLeavesStateUntouched pins that a wrong-path excursion (the
// warmer's cache-pollution replay) never perturbs architectural state: an
// emulator that takes excursions at every branch must halt with exactly
// the state of one that never does.
func TestExcursionLeavesStateUntouched(t *testing.T) {
	p := chaseProg(50)
	plain := New(p)
	if _, err := plain.Run(0); err != nil {
		t.Fatal(err)
	}

	e := New(p)
	for !e.Halted {
		pc := e.PC
		st, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Inst.IsBranch() {
			// Walk the not-taken direction (whatever actually happened).
			wrong := pc + 1
			if !st.Taken {
				wrong = st.Inst.Target
			}
			e.Excursion(wrong, 64, func(*Step) bool { return true })
		}
	}
	if e.Count != plain.Count || e.Regs != plain.Regs {
		t.Fatal("excursions perturbed architectural register state")
	}
	plain.Mem.Each(func(addr, val uint64) {
		if got := e.Mem.Read(addr); got != val {
			t.Errorf("mem[%#x] = %d, want %d", addr, got, val)
		}
	})
}
