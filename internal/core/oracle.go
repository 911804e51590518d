package core

import "dmp/internal/emu"

// fetchOracle is a functional emulator that follows the fetch stream
// along correct-path instructions only. While fetch is on the correct
// path the oracle is "in lockstep": it executes each fetched instruction
// architecturally and therefore knows every branch outcome at fetch time.
// When fetch diverges from the correct path (a misprediction, or the
// wrong side of a dynamically predicated branch) the oracle pauses at the
// divergence point.
//
// Re-synchronisation relies on the emulator's rolling history window:
// every oracle-executed instruction records its architectural step count
// on the uop (uop.oracleCount), and whenever a flush (or a dynamic
// predication transition) moves fetch back to the correct continuation of
// an oracle-executed instruction, the oracle rewinds to exactly that
// step. Retirement trims the window, which therefore never grows beyond
// the instruction window. The window is an undo log (emu.History): each
// step logs the PC before it and the register and memory word it
// overwrote, a few words per fetched instruction, and a rewind undoes
// the squashed steps newest first.
//
// The oracle provides: perfect conditional branch prediction
// (ModePerfect), perfect confidence estimation (low-confidence exactly
// when mispredicted), the correct-path/wrong-path labelling behind
// Figure 1, and the golden model: retirement checks each instruction
// against the window's record of its step (emu.Emulator.Logged).
type fetchOracle struct {
	em     *emu.Emulator
	onPath bool
	st     emu.Step // record of the oracle's latest step, overwritten by the next
}

// oracleTrimEvery is how many retirements pass between trims of the
// oracle's rewind window. A trim only moves the window's base, so it can
// be frequent, which keeps the window close to the instruction window.
const oracleTrimEvery = 64

// newFetchOracle wraps an emulator at the program entry, or one the
// sampling driver seeds from a mid-program checkpoint. The emulator's
// Count must equal the machine's retired-instruction count at that
// point — checkpoint transplant zeroes both — because retirement
// compares the two directly. window bounds how far the oracle runs
// ahead of retirement (Machine.oracleWindow).
func newFetchOracle(em *emu.Emulator, window int) *fetchOracle {
	o := &fetchOracle{em: em, onPath: true}
	o.em.EnableHistory(window + oracleTrimEvery)
	return o
}

// stepIfAt executes the instruction the uop was fetched from, if the
// oracle is in lockstep and agrees on the PC. It returns the
// architectural step, valid until the oracle steps again, or nil if the
// oracle did not execute it. A PC mismatch while in lockstep means fetch
// has just diverged: the oracle pauses.
func (o *fetchOracle) stepIfAt(u *uop) *emu.Step {
	if !o.onPath || o.em.Halted {
		return nil
	}
	if o.em.PC != u.pc {
		o.onPath = false
		return nil
	}
	if err := o.em.StepInto(&o.st); err != nil {
		// The oracle only steps in-image instructions; a failure here is
		// a simulator bug surfaced as a paused oracle.
		o.onPath = false
		return nil
	}
	return &o.st
}

// waitingAt reports whether the oracle is paused exactly at pc.
func (o *fetchOracle) waitingAt(pc uint64) bool {
	return !o.onPath && !o.em.Halted && o.em.PC == pc
}

// resumeAt puts the oracle back in lockstep if it is waiting at pc. The
// caller must only invoke this for redirects anchored at an on-path
// instruction; resuming on a coincidental wrong-path PC match would
// corrupt the oracle.
func (o *fetchOracle) resumeAt(pc uint64) bool {
	if o.waitingAt(pc) {
		o.onPath = true
		return true
	}
	return false
}

// pause takes the oracle out of lockstep explicitly.
func (o *fetchOracle) pause() { o.onPath = false }

// rewindTo restores the oracle to the architectural state immediately
// after step count (recorded on an oracle-executed uop) and puts it back
// in lockstep. Reports success.
func (o *fetchOracle) rewindTo(count uint64) bool {
	if err := o.em.RewindTo(count); err != nil {
		return false
	}
	o.onPath = true
	return true
}

// trim tells the oracle that all steps up to count have retired and can
// never be rewound to.
func (o *fetchOracle) trim(count uint64) { o.em.TrimHistory(count) }

// steps returns the architectural instruction count the oracle has
// executed so far (probe reporting).
func (o *fetchOracle) steps() uint64 { return o.em.Count }
