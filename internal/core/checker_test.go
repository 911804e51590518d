package core

import (
	"strings"
	"testing"

	"dmp/internal/prog"
	"dmp/internal/workload"
)

// corruption is one fault TestCheckerCatchesCorruption injects into a
// running machine's reorder buffer. inject reports whether the window
// held a uop to corrupt.
type corruption struct {
	name, bench string
	inject      func(m *Machine) bool
}

// corruptOldest corrupts the oldest completed, unpredicated uop in the
// ROB that want accepts, and reports whether there was one. The oldest
// is the one least likely to be squashed before it retires.
func corruptOldest(want func(u *uop) bool, corrupt func(u *uop)) func(m *Machine) bool {
	return func(m *Machine) bool {
		for _, r := range m.rob {
			if u := m.arena.at(r); u.done && !u.squashed && u.predID == 0 && want(u) {
				corrupt(u)
				return true
			}
		}
		return false
	}
}

// TestCheckerCatchesCorruption shows that the retirement checker
// catches a wrong result: for each fault it drives an enhanced machine
// in RunUntil windows, corrupts one completed, unpredicated uop in the
// window (or drops the ROB head, which skips a retirement), runs on, and
// requires the run to fail with a golden-model error. The golden tables
// pass just as well if the checker checks nothing; this test does not.
func TestCheckerCatchesCorruption(t *testing.T) {
	inst := func(u *uop) bool { return u.kind == kindInst }
	flip := func(u *uop) { u.dstVal ^= 1 }
	cases := []corruption{
		{"alu-dst", "mcf", corruptOldest(func(u *uop) bool { return inst(u) && u.hasDst && u.inst.IsALU() }, flip)},
		{"load-dst", "mcf", corruptOldest(func(u *uop) bool { return inst(u) && u.hasDst && u.isLoad }, flip)},
		{"select-dst", "mcf", corruptOldest(func(u *uop) bool { return u.kind == kindSelect }, flip)},
		{"store-val", "bzip2", corruptOldest(func(u *uop) bool { return inst(u) && u.isStore }, flip)},
		{"store-addr", "bzip2", corruptOldest(func(u *uop) bool { return inst(u) && u.isStore }, func(u *uop) { u.addr += 8 })},
		{"skip", "mcf", func(m *Machine) bool {
			if len(m.rob) == 0 {
				return false
			}
			if h := m.arena.at(m.rob[0]); !h.done || h.kind != kindInst || h.predID != 0 || h.isStore {
				return false
			}
			m.rob = m.rob[1:]
			return true
		}},
	}
	progs := map[string]*prog.Program{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := progs[c.bench]
			if p == nil {
				w, err := workload.ByName(c.bench)
				if err != nil {
					t.Fatal(err)
				}
				p = annotatedRef(t, w, 1)
				progs[c.bench] = p
			}
			cfg := EnhancedDMPConfig()
			cfg.CheckRetirement = true
			m, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			injected := false
			for n := uint64(1000); !injected && !m.halted; n += 100 {
				if _, err := m.RunUntil(n); err != nil {
					t.Fatalf("clean run failed at %d instructions: %v", n, err)
				}
				injected = c.inject(m)
			}
			if !injected {
				t.Fatal("the program halted before a uop to corrupt was in the window")
			}
			_, err = m.Run()
			if err == nil {
				t.Fatal("corrupted run passed the checker")
			}
			if !strings.Contains(err.Error(), "golden") {
				t.Fatalf("corrupted run failed without a golden-model error: %v", err)
			}
			t.Log(err)
		})
	}
}
