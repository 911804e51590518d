package emu

import (
	"fmt"
	"sync"

	"dmp/internal/isa"
)

// History is a rolling undo window over an emulator's recent steps: a
// register/PC snapshot per executed instruction plus an undo log of
// memory writes, trimmed from the front as the consumer's retirement
// frontier advances.
//
// The fetch oracle uses it to rewind to the architectural state
// immediately after any in-flight instruction: when a pipeline flush
// squashes fetched work the oracle had already executed, the machine
// rewinds the oracle to the flushing branch and both are exactly in
// lockstep again. The window never needs to reach behind retirement
// (retired instructions cannot be squashed), which bounds its size by
// the instruction window.
//
// Both logs are rings indexed by absolute position — the mark for step
// count c at marks[c mod len], write number w at wr[w mod len] — so
// trimming only moves a base and rewinding only moves an end: neither
// copies. A ring doubles when the window outgrows it.
type History struct {
	base  uint64     // step count of the oldest mark
	marks []histMark // power-of-two ring of the marks for steps base..Count
	wbase uint64     // number of the oldest write still logged
	nwr   uint64     // number of writes logged so far (one past the newest)
	wr    []histWrite
}

type histMark struct {
	regs   [isa.NumRegs]uint64
	pc     uint64
	halted bool
	nwr    uint64 // total memory writes logged up to and including this step
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
	if h == nil || len(h.marks) < n {
		h = &History{marks: make([]histMark, n), wr: make([]histWrite, n)}
	}
	h.base, h.wbase, h.nwr = e.Count, 0, 0
	e.hist = h
	h.marks[e.Count&uint64(len(h.marks)-1)] = e.markNow()
}

// ReleaseHistory stops recording and hands the history's buffers to a
// later EnableHistory. The emulator can no longer be rewound.
func (e *Emulator) ReleaseHistory() {
	if e.hist != nil {
		histPool.Put(e.hist)
		e.hist = nil
	}
}

func (e *Emulator) markNow() histMark {
	m := histMark{regs: e.Regs, pc: e.PC, halted: e.Halted}
	if e.hist != nil {
		m.nwr = e.hist.nwr
	}
	return m
}

// recordStep logs the mark for the step just executed (Count already
// advanced).
//
//dmp:hotpath
func (h *History) recordStep(e *Emulator) {
	if e.Count-h.base >= uint64(len(h.marks)) {
		h.growMarks(e.Count)
	}
	h.marks[e.Count&uint64(len(h.marks)-1)] = e.markNow()
}

// growMarks doubles the mark ring, keeping the marks for steps
// base..count-1.
func (h *History) growMarks(count uint64) {
	old := h.marks
	h.marks = make([]histMark, 2*len(old))
	for c := h.base; c < count; c++ {
		h.marks[c&uint64(len(h.marks)-1)] = old[c&uint64(len(old)-1)]
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
	m := h.marks[count&uint64(len(h.marks)-1)]
	// Undo memory writes performed after the mark, newest first.
	for w := h.nwr; w > m.nwr; w-- {
		x := h.wr[(w-1)&uint64(len(h.wr)-1)]
		e.Mem.Write(x.addr, x.old)
	}
	h.nwr = m.nwr
	e.Regs, e.PC, e.Halted = m.regs, m.pc, m.halted
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
	if count > e.Count {
		count = e.Count
	}
	h.base = count
	h.wbase = h.marks[count&uint64(len(h.marks)-1)].nwr
}

// HistoryLen reports the current window size in steps, for tests.
func (e *Emulator) HistoryLen() int {
	if e.hist == nil {
		return 0
	}
	return int(e.Count - e.hist.base)
}
