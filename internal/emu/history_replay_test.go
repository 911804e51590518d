package emu_test

import (
	"math/rand"
	"testing"

	"dmp/internal/emu"
	"dmp/internal/workload"
)

// TestHistoryRewindEqualsReplay drives the undo-log history over every
// workload program with a random interleaving of steps, trims and
// rewinds. The window starts small, so the record and write rings grow
// while steps are held, and rewinds cross stores and ring growths. After each rewind the
// emulator's registers, PC, count, halt flag and memory must equal a
// fresh emulator replayed to the same count, and Logged must return
// each step still in the window as the replay ran it: its PC, its result
// and a store's address. Logged reports no step at the window's base or
// past Count.
func TestHistoryRewindEqualsReplay(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: 1})
		rng := rand.New(rand.NewSource(int64(len(name))))
		e := emu.New(p)
		e.EnableHistory(8)
		base := e.Count
		for round := 0; round < 12 && !e.Halted; round++ {
			for n := rng.Intn(3000); n > 0 && !e.Halted; n-- {
				if _, err := e.Step(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if rng.Intn(3) == 0 {
				// Trim, keeping at least part of the window.
				base += uint64(rng.Int63n(int64(e.Count-base) + 1))
				e.TrimHistory(base)
			}
			// Every other rewind goes all the way back to the window's
			// base, through the oldest record a ring growth copied.
			target := base
			if round%2 == 1 {
				target += uint64(rng.Int63n(int64(e.Count-base) + 1))
			}
			if err := e.RewindTo(target); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref := emu.New(p)
			for ref.Count < target {
				st, err := ref.Step()
				if err != nil {
					t.Fatalf("%s: replay: %v", name, err)
				}
				if ref.Count <= base {
					continue
				}
				val, addr := st.RegVal, uint64(0)
				if st.IsStore {
					val, addr = st.MemVal, st.Addr
				}
				if pc, v, a, ok := e.Logged(ref.Count); !ok || pc != st.PC || v != val || a != addr {
					t.Fatalf("%s round %d: Logged(%d) = pc %d val %d addr %d ok %v, replay pc %d val %d addr %d",
						name, round, ref.Count, pc, v, a, ok, st.PC, val, addr)
				}
			}
			for _, c := range []uint64{base, target + 1} {
				if _, _, _, ok := e.Logged(c); ok {
					t.Fatalf("%s round %d: Logged(%d) reports a step outside the window (%d, %d]", name, round, c, base, target)
				}
			}
			if e.Regs != ref.Regs || e.PC != ref.PC || e.Count != ref.Count || e.Halted != ref.Halted {
				t.Fatalf("%s round %d: rewound to %d: pc %d count %d halted %v, replay pc %d count %d halted %v (registers equal: %v)",
					name, round, target, e.PC, e.Count, e.Halted, ref.PC, ref.Count, ref.Halted, e.Regs == ref.Regs)
			}
			if got, want := words(e.Mem), words(ref.Mem); !sameWords(got, want) {
				t.Fatalf("%s round %d: rewound to %d: memory differs from the replay (%d words, want %d)", name, round, target, len(got), len(want))
			}
		}
	}
}

func words(m *emu.Memory) map[uint64]uint64 {
	w := map[uint64]uint64{}
	m.Each(func(addr, val uint64) { w[addr] = val })
	return w
}

func sameWords(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
