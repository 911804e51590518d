package core

import (
	"fmt"

	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// NewFromCheckpointWarm builds a machine for p under cfg whose
// architectural state starts at the emulator checkpoint ck instead of the
// program entry, with ws's trained caches, predictors, and merge table
// instead of cold ones, taking ownership of ws (pass Warmer.Snapshot
// results, one per machine). The checkpoint's memory is cloned, so one
// checkpoint can seed any number of machines, and the fetch oracle
// starts at the same point, so a stitched mid-program run is still
// checked instruction by instruction. This is the sampled-simulation
// seeding path, and it skips
// the cold-component construction New would throw away — per-interval
// setup matters when a sampled run builds dozens of short-lived machines.
func NewFromCheckpointWarm(p *prog.Program, cfg Config, ck emu.Checkpoint, ws *WarmState) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newWith(p, cfg, ws)
	m.dmem = ck.Mem.Clone()
	m.restart(ck.Regs, ck.PC, ck.Halted)
	return m, nil
}

// restart installs committed registers regs over the machine's data
// memory, with fetch at pc: the register alias table is re-rooted at the
// committed values, and the fetch oracle is (re)built at that point.
// Its instruction count starts at zero: retirement compares the
// oracle's Count against the machine's own retired count, which also
// starts at zero on a transplanted machine.
func (m *Machine) restart(regs [isa.NumRegs]uint64, pc uint64, halted bool) {
	m.commitRegs = regs
	m.fetchPC = pc
	m.fetchHalted = halted
	m.halted = halted
	m.rat = rat{}
	for r := range m.rat.e {
		m.rat.e[r] = ratEntry{val: regs[r]}
	}
	// The transient Checkpoint aliases m.dmem; emu.NewFromCheckpoint
	// clones it, so the oracle owns its memory and speculative oracle
	// stores never leak into committed state.
	ck := emu.Checkpoint{Regs: regs, Mem: m.dmem, PC: pc, Halted: halted}
	if m.oracle != nil {
		m.oracle.em.ReleaseHistory()
	}
	m.oracle = newFetchOracle(emu.NewFromCheckpoint(m.prog, ck), m.oracleWindow())
}

// FunctionalWarm advances the machine's architectural state by n program
// instructions of pure functional emulation, training the machine's own
// learned state (WarmState.observe) — but with no cycle accounting and no
// Stats movement. Sampled simulation seeds the long-lived learned state
// via NewFromCheckpointWarm; this per-interval window is an optional
// extra that re-trains the short-history state on the instructions
// immediately preceding the measured window.
//
// Must be called before Run/RunUntil. Returns the number of instructions
// actually warmed — short only if the program halts inside the window,
// in which case the machine is left halted and a subsequent Run retires
// nothing.
func (m *Machine) FunctionalWarm(n uint64) (uint64, error) {
	if m.started {
		return 0, fmt.Errorf("core: FunctionalWarm after Run started")
	}
	if n == 0 {
		return 0, nil
	}
	// The warm emulator writes committed registers and memory in place:
	// its execution *is* the architectural run of the warmed region.
	we := &emu.Emulator{Prog: m.prog, Regs: m.commitRegs, Mem: m.dmem, PC: m.fetchPC, Halted: m.fetchHalted}
	var warmed uint64
	var st emu.Step
	for warmed < n && !we.Halted {
		pc := we.PC
		if err := we.StepInto(&st); err != nil {
			return warmed, fmt.Errorf("core: functional warm at pc %d: %w", pc, err)
		}
		warmed++
		// The window trains every predictor whatever WarmMode says, and
		// replays no episode alternate paths.
		m.observe(we, &st, nil)
	}
	m.restart(we.Regs, we.PC, we.Halted)
	return warmed, nil
}
