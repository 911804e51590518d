package emu

import (
	"fmt"
	"sync"

	"dmp/internal/isa"
)

// History is a rolling undo window over an emulator's recent steps: an
// undo record per executed instruction plus an undo log of memory
// writes, trimmed from the front as the consumer's retirement frontier
// advances.
//
// The fetch oracle uses it to rewind to the architectural state
// immediately after any in-flight instruction: when a pipeline flush
// squashes fetched work the oracle had already executed, the machine
// rewinds the oracle to the flushing branch and both are exactly in
// lockstep again. The window never needs to reach behind retirement
// (retired instructions cannot be squashed), which bounds its size by
// the instruction window.
//
// A step's undo record holds what the step overwrote — its PC, the
// register it names as destination and that register's old value — and
// the write-log position before it, a few words rather than a copy of
// the register file. RewindTo walks the records backwards from the
// newest, so a rewind costs the steps it undoes, which the window
// bounds. The record also keeps the step's result (Logged).
//
// Both logs are rings indexed by absolute position — the record of the
// step that made the count c at steps[c mod len], write number w at
// wr[w mod len] — so trimming only moves a base and rewinding only moves
// an end: neither copies. A ring doubles when the window outgrows it.
type History struct {
	base  uint64     // oldest count RewindTo can reach; records cover steps base+1..Count
	steps []histStep // power-of-two ring of undo records
	wbase uint64     // number of the oldest write still logged
	nwr   uint64     // number of writes logged so far (one past the newest)
	wr    []histWrite
}

// histStep undoes one step and records its result.
type histStep struct {
	pc  uint64  // PC before the step
	old uint64  // reg's value before the step
	nwr uint64  // writes logged before the step
	val uint64  // the value the step wrote to its register, or the word it stored
	reg isa.Reg // the instruction's destination field, written or not
}

type histWrite struct {
	addr, old uint64
}

// histPool recirculates history buffers between emulators: a simulator
// runs many short-lived machines back to back, each with a fetch oracle
// whose history is sized to the machine's window.
var histPool sync.Pool // of *History

// EnableHistory starts recording rewind state on every Step. The current
// state becomes the oldest rewindable point. window is the most steps
// the caller expects to hold between trims; reserving it up front keeps
// stepping allocation-free while the window stays within it.
func (e *Emulator) EnableHistory(window int) {
	n := 16
	for n < window+1 {
		n *= 2
	}
	h, _ := histPool.Get().(*History)
	if h == nil || len(h.steps) < n {
		h = &History{steps: make([]histStep, n), wr: make([]histWrite, n)}
	}
	h.base, h.wbase, h.nwr = e.Count, 0, 0
	e.hist = h
}

// ReleaseHistory stops recording and hands the history's buffers to a
// later EnableHistory. The emulator can no longer be rewound.
func (e *Emulator) ReleaseHistory() {
	if e.hist != nil {
		histPool.Put(e.hist)
		e.hist = nil
	}
}

// recordStep logs the undo record of the step e is about to execute,
// whose instruction names dst as destination, and returns it for the
// step to fill in its result. The field is masked into range: an
// instruction that writes no register restores that register's
// unchanged value. A step that then fails leaves a record past Count,
// which the next step overwrites.
//
//dmp:hotpath
func (h *History) recordStep(e *Emulator, dst isa.Reg) *histStep {
	count := e.Count + 1
	if count-h.base > uint64(len(h.steps)) {
		h.growSteps(count)
	}
	reg := dst % isa.NumRegs
	s := &h.steps[count&uint64(len(h.steps)-1)]
	*s = histStep{pc: e.PC, old: e.Regs[reg], nwr: h.nwr, reg: reg}
	return s
}

// growSteps doubles the record ring, keeping the records for steps
// base+1..count-1.
func (h *History) growSteps(count uint64) {
	old := h.steps
	h.steps = make([]histStep, 2*len(old))
	for c := h.base + 1; c < count; c++ {
		h.steps[c&uint64(len(h.steps)-1)] = old[c&uint64(len(old)-1)]
	}
}

// recordWrite logs the value a store is about to overwrite.
//
//dmp:hotpath
func (h *History) recordWrite(addr, old uint64) {
	if h.nwr-h.wbase >= uint64(len(h.wr)) {
		h.growWrites()
	}
	h.wr[h.nwr&uint64(len(h.wr)-1)] = histWrite{addr, old}
	h.nwr++
}

// growWrites doubles the write ring, keeping the logged writes.
func (h *History) growWrites() {
	prev := h.wr
	h.wr = make([]histWrite, 2*len(prev))
	for w := h.wbase; w < h.nwr; w++ {
		h.wr[w&uint64(len(h.wr)-1)] = prev[w&uint64(len(prev)-1)]
	}
}

// RewindTo restores the emulator to its state immediately after step
// `count` (Count == count). count must lie inside the history window.
func (e *Emulator) RewindTo(count uint64) error {
	h := e.hist
	if h == nil {
		return fmt.Errorf("emu: RewindTo without history")
	}
	if count < h.base || count > e.Count {
		return fmt.Errorf("emu: RewindTo(%d) outside window [%d, %d]", count, h.base, e.Count)
	}
	if count == e.Count {
		return nil
	}
	// Undo the steps after count, newest first. No step runs from a
	// halted state, so the state after count was not halted.
	mask := uint64(len(h.steps) - 1)
	for c := e.Count; c > count; c-- {
		s := &h.steps[c&mask]
		e.Regs[s.reg] = s.old
		e.PC = s.pc
	}
	// Undo memory writes performed after count, newest first.
	nwr := h.steps[(count+1)&mask].nwr
	for w := h.nwr; w > nwr; w-- {
		x := h.wr[(w-1)&uint64(len(h.wr)-1)]
		e.Mem.Write(x.addr, x.old)
	}
	h.nwr = nwr
	e.Halted = false
	e.Count = count
	return nil
}

// TrimHistory discards rewind state for steps before count: the caller
// guarantees it will never rewind that far back (those instructions
// retired).
func (e *Emulator) TrimHistory(count uint64) {
	h := e.hist
	if h == nil || count <= h.base {
		return
	}
	if count >= e.Count {
		count = e.Count
		h.wbase = h.nwr
	} else {
		h.wbase = h.steps[(count+1)&uint64(len(h.steps)-1)].nwr
	}
	h.base = count
}

// Logged returns what step count did, as its record holds it: the PC
// it ran at, its result (the value it wrote to its register, or the
// word it stored) and, for a store, the address it wrote. ok is false
// outside the window, which holds steps base+1..Count.
func (e *Emulator) Logged(count uint64) (pc, val, addr uint64, ok bool) {
	h := e.hist
	if h == nil || count <= h.base || count > e.Count {
		return 0, 0, 0, false
	}
	s := &h.steps[count&uint64(len(h.steps)-1)]
	if e.Prog.Code[s.pc].Op == isa.ST {
		addr = h.wr[s.nwr&uint64(len(h.wr)-1)].addr
	}
	return s.pc, s.val, addr, true
}

// HistoryLen reports the current window size in steps, for tests.
func (e *Emulator) HistoryLen() int {
	if e.hist == nil {
		return 0
	}
	return int(e.Count - e.hist.base)
}
