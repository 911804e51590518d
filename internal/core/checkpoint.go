package core

import (
	"fmt"

	"dmp/internal/emu"
	"dmp/internal/prog"
)

// NewFromCheckpoint builds a machine for p under cfg whose architectural
// state starts at the emulator checkpoint ck instead of the program
// entry: committed registers and data memory are transplanted, fetch
// starts at the checkpoint PC, and the fetch oracle and golden-model
// checker are re-seeded at the same point (so a stitched mid-program run
// is still validated instruction-by-instruction against the functional
// emulator). The checkpoint's memory is cloned — one checkpoint can seed
// any number of machines. Microarchitectural state (predictors, caches,
// merge table) starts cold; use FunctionalWarm before Run/RunUntil to
// train it.
func NewFromCheckpoint(p *prog.Program, cfg Config, ck emu.Checkpoint) (*Machine, error) {
	m, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	m.transplant(ck)
	return m, nil
}

// NewFromCheckpointWarm is NewFromCheckpoint with the learned state
// transplanted too: the machine starts at ck with ws's trained caches,
// predictors, and merge table instead of cold ones, taking ownership of
// ws (pass Warmer.Snapshot results, one per machine). This is the
// sampled-simulation seeding path, and it skips the cold-component
// construction New would throw away — per-interval setup matters when a
// sampled run builds dozens of short-lived machines.
func NewFromCheckpointWarm(p *prog.Program, cfg Config, ck emu.Checkpoint, ws *WarmState) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newWith(p, cfg, ws)
	m.transplant(ck)
	return m, nil
}

// transplant installs the checkpoint's architectural state: committed
// registers and data memory (cloned — one checkpoint can seed any number
// of machines), fetch restarting at the checkpoint PC, the register
// alias table re-rooted at the committed values, and the fetch oracle
// and golden-model checker re-seeded at the same point.
func (m *Machine) transplant(ck emu.Checkpoint) {
	m.commitRegs = ck.Regs
	m.dmem = ck.Mem.Clone()
	m.fetchPC = ck.PC
	m.fetchHalted = ck.Halted
	m.halted = ck.Halted
	for r := range m.rat.e {
		m.rat.e[r] = ratEntry{val: m.commitRegs[r]}
	}
	m.seedEmus()
}

// seedEmus (re)builds the fetch oracle and the golden-model checker at
// the machine's current committed state. Their instruction counts start
// at zero: the retirement-resync logic compares the oracle's Count
// against the machine's own retired count, which also starts at zero on
// a transplanted machine.
func (m *Machine) seedEmus() {
	// The transient Checkpoint aliases m.dmem; emu.NewFromCheckpoint
	// clones it, so the oracle and checker each own their memory and
	// speculative oracle stores never leak into committed state.
	ck := emu.Checkpoint{Regs: m.commitRegs, Mem: m.dmem, PC: m.fetchPC, Count: 0, Halted: m.fetchHalted}
	if m.oracle != nil {
		m.oracle.em.ReleaseHistory()
	}
	m.oracle = newFetchOracleFrom(emu.NewFromCheckpoint(m.prog, ck), m.oracleWindow())
	if m.cfg.CheckRetirement {
		m.checker = emu.NewFromCheckpoint(m.prog, ck)
	}
}

// FunctionalWarm advances the machine's architectural state by n program
// instructions of pure functional emulation, training the branch
// predictor, confidence estimator, BTB, return address stack, indirect
// target cache, cache hierarchy, and (when attached) the merge-point
// predictor exactly as retirement would (WarmState.observe) — but with
// no cycle accounting and no Stats movement. Sampled simulation seeds
// the long-lived learned state via NewFromCheckpointWarm; this per-interval
// window is an optional extra that re-trains the short-history state on
// the instructions immediately preceding the measured window.
//
// Must be called before Run/RunUntil. Returns the number of instructions
// actually warmed — short only if the program halts inside the window,
// in which case the machine is left halted and a subsequent Run retires
// nothing.
func (m *Machine) FunctionalWarm(n uint64) (uint64, error) {
	if m.started {
		return 0, fmt.Errorf("core: FunctionalWarm after Run started")
	}
	// The warm emulator writes committed registers and memory in place:
	// its execution *is* the architectural run of the warmed region. The
	// WarmState is a view over the machine's own components.
	we := &emu.Emulator{Prog: m.prog, Regs: m.commitRegs, Mem: m.dmem, PC: m.fetchPC, Halted: m.fetchHalted}
	ws := WarmState{hier: m.hier, pred: m.pred, confEst: m.confEst, btb: m.btb, ras: m.ras,
		itc: m.itc, merge: m.merge, ghr: m.fetchGHR, perfectConf: m.cfg.ConfidenceName == "perfect"}
	var warmed uint64
	var st emu.Step
	for warmed < n && !we.Halted {
		pc := we.PC
		if err := we.StepInto(&st); err != nil {
			return warmed, fmt.Errorf("core: functional warm at pc %d: %w", pc, err)
		}
		warmed++
		ws.observe(we, &st)
	}
	ghr := ws.ghr
	m.commitRegs = we.Regs
	m.fetchPC = we.PC
	m.fetchGHR = ghr
	m.fetchHalted = we.Halted
	m.halted = we.Halted
	for r := range m.rat.e {
		m.rat.e[r] = ratEntry{val: m.commitRegs[r]}
	}
	m.seedEmus()
	return warmed, nil
}
