package core

import (
	"testing"

	"dmp/internal/isa"
	"dmp/internal/prog"
)

// lsqMachine builds a minimal machine for driving loadLookup directly.
func lsqMachine(t testing.TB) *Machine {
	t.Helper()
	m, err := New(prog.MustAssemble("halt"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// store allocates a store uop in m's arena, where the store buffer names
// it.
func store(m *Machine, seq uint64, addr uint64, val uint64, predID int32, addrValid bool) *uop {
	u := m.arena.alloc(seq, 0, kindInst)
	u.inst = isa.Inst{Op: isa.ST}
	u.isStore, u.addr, u.addrValid, u.dstVal, u.predID = true, addr, addrValid, val, predID
	return u
}

func load(seq uint64, addr uint64, predID int32) *uop {
	return &uop{seq: seq, isLoad: true, addr: addr, predID: predID}
}

// Rule 1: a non-predicated older store with a matching address forwards.
func TestForwardRule1Unpredicated(t *testing.T) {
	m := lsqMachine(t)
	m.sbAlloc(store(m, 1, 0x100, 42, 0, true))
	val, fromSB, stall := m.loadLookup(load(2, 0x100, 0))
	if stall || !fromSB || val != 42 {
		t.Errorf("got val=%d fromSB=%v stall=%v", val, fromSB, stall)
	}
	// Youngest matching store wins.
	m.sbAlloc(store(m, 3, 0x100, 99, 0, true))
	val, _, _ = m.loadLookup(load(4, 0x100, 0))
	if val != 99 {
		t.Errorf("youngest store did not win: %d", val)
	}
}

// Rule 2: a predicated store forwards once its predicate is known TRUE,
// and is transparent once known FALSE.
func TestForwardRule2ResolvedPredicates(t *testing.T) {
	m := lsqMachine(t)
	pTrue := m.preds.alloc()
	pFalse := m.preds.alloc()
	m.preds.broadcast(pTrue, true)
	m.preds.broadcast(pFalse, false)

	m.sbAlloc(store(m, 1, 0x100, 11, 0, true))      // base value
	m.sbAlloc(store(m, 2, 0x100, 22, pFalse, true)) // dead path: transparent
	val, fromSB, stall := m.loadLookup(load(3, 0x100, 0))
	if stall || !fromSB || val != 11 {
		t.Errorf("FALSE store not transparent: val=%d stall=%v", val, stall)
	}
	m.sbAlloc(store(m, 4, 0x100, 33, pTrue, true)) // live path: forwards
	val, _, _ = m.loadLookup(load(5, 0x100, 0))
	if val != 33 {
		t.Errorf("TRUE store did not forward: %d", val)
	}
}

// Rule 3: an unresolved predicated store forwards only to a load with
// the same predicate id; a cross-path load must wait.
func TestForwardRule3SamePathOnly(t *testing.T) {
	m := lsqMachine(t)
	p1 := m.preds.alloc()
	p2 := m.preds.alloc()
	m.sbAlloc(store(m, 1, 0x100, 77, p1, true))

	// Same dynamically predicated path: forwards.
	val, fromSB, stall := m.loadLookup(load(2, 0x100, p1))
	if stall || !fromSB || val != 77 {
		t.Errorf("same-path forward failed: val=%d stall=%v", val, stall)
	}
	// Different path, predicate unknown: must wait.
	if _, _, stall := m.loadLookup(load(3, 0x100, p2)); !stall {
		t.Error("cross-path load did not stall on unresolved predicate")
	}
	// Unpredicated younger load also waits (it is on "the other side").
	if _, _, stall := m.loadLookup(load(4, 0x100, 0)); !stall {
		t.Error("unpredicated load did not stall on unresolved predicated store")
	}
}

// Rule 4: an older store with an uncomputed address blocks the load.
func TestForwardRule4UnknownAddress(t *testing.T) {
	m := lsqMachine(t)
	m.sbAlloc(store(m, 1, 0, 0, 0, false)) // address not ready
	if _, _, stall := m.loadLookup(load(2, 0x100, 0)); !stall {
		t.Error("load did not stall behind unknown-address store")
	}
	// But a known-FALSE store never blocks, address or not.
	m2 := lsqMachine(t)
	pf := m2.preds.alloc()
	m2.preds.broadcast(pf, false)
	m2.sbAlloc(store(m2, 1, 0, 0, pf, false))
	if _, _, stall := m2.loadLookup(load(2, 0x100, 0)); stall {
		t.Error("dead store with unknown address blocked a load")
	}
}

// Age and address discrimination: younger stores and other addresses are
// ignored; misses read committed memory.
func TestForwardAgeAndAddress(t *testing.T) {
	m := lsqMachine(t)
	m.dmem.Write(0x100, 5)
	m.sbAlloc(store(m, 10, 0x100, 42, 0, true)) // YOUNGER than the load
	m.sbAlloc(store(m, 1, 0x200, 7, 0, true))   // different address
	val, fromSB, stall := m.loadLookup(load(5, 0x100, 0))
	if stall || fromSB || val != 5 {
		t.Errorf("expected committed-memory read of 5: val=%d fromSB=%v stall=%v", val, fromSB, stall)
	}
	// Word-granularity aliasing: low 3 address bits are ignored.
	m.sbAlloc(store(m, 2, 0x104, 9, 0, true))
	val, fromSB, _ = m.loadLookup(load(6, 0x100, 0))
	if !fromSB || val != 9 {
		t.Errorf("sub-word alias did not forward: val=%d fromSB=%v", val, fromSB)
	}
}

func TestSBSquashAndRetire(t *testing.T) {
	m := lsqMachine(t)
	a := store(m, 1, 0x100, 1, 0, true)
	b := store(m, 2, 0x108, 2, 0, true)
	c := store(m, 3, 0x110, 3, 0, true)
	m.sbAlloc(a)
	m.sbAlloc(b)
	m.sbAlloc(c)
	if !m.sbFull() == (m.cfg.StoreBufferSize <= 3) {
		t.Log("capacity sanity only")
	}
	m.sbSquash(2) // kills c
	if len(m.sb) != 2 {
		t.Fatalf("sb len %d after squash, want 2", len(m.sb))
	}
	// Retire must pop in order.
	if !m.sbRetireHead(a) {
		t.Error("head retire of a failed")
	}
	if m.sbRetireHead(c) {
		t.Error("retire of squashed store succeeded")
	}
	if !m.sbRetireHead(b) {
		t.Error("head retire of b failed")
	}
	if len(m.sb) != 0 {
		t.Errorf("sb not empty: %d", len(m.sb))
	}
}
