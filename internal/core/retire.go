package core

import (
	"fmt"

	"dmp/internal/isa"
)

// retireStage retires up to RetireWidth completed uops from the head of
// the reorder buffer, in order. Predicate-FALSE instructions free their
// results without updating architectural state (Section 2.5); stores
// drain to memory; every committed instruction is checked against the
// fetch oracle's log of the program's architectural execution.
//
//dmp:hotpath
func (m *Machine) retireStage() {
	// A ROB's worth of newly parked producers triggers a reclaim pass,
	// which bounds the parked list, and so the arena, by the window.
	if len(m.parked)-m.parkedKept >= m.cfg.ROBSize {
		m.reclaimRetired()
		m.parkedKept = len(m.parked)
	}
	for n := 0; n < m.cfg.RetireWidth && len(m.rob) > 0; n++ {
		u := m.arena.at(m.rob[0])
		if !u.done {
			return
		}
		if u.predID != 0 && !m.preds.known(u.predID) {
			// The producing diverge branch is older and retires first,
			// broadcasting the predicate; reaching here means it
			// completed this very cycle. Wait one cycle.
			return
		}
		m.rob = m.rob[1:]
		if m.probe != nil {
			m.probeUop(StageRetire, u)
		}
		m.salvage(u)
		m.retireOne(u)
		m.dropRetired(u)
		if m.halted || m.runErr != nil {
			return
		}
	}
}

func (m *Machine) retireOne(u *uop) {
	switch u.kind {
	case kindEnterPred, kindEnterAlt, kindExitPred, kindFork:
		m.Stats.RetiredMarkers++
		return
	case kindSelect:
		// Select-uops commit their muxed value. At this retirement point
		// the committed state sits exactly at the CFM point, so the muxed
		// value must equal the architectural register — which is
		// commitRegs, since every earlier commit passed its check.
		if m.cfg.CheckRetirement && m.commitRegs[u.dstArch] != u.dstVal {
			m.fail(u, fmt.Sprintf("select %v = %d, golden %d", u.dstArch, u.dstVal, m.commitRegs[u.dstArch]))
		}
		m.commitRegs[u.dstArch] = u.dstVal
		m.Stats.RetiredSelects++
		return
	}

	if u.predID != 0 && !m.preds.value(u.predID) {
		// Predicate-FALSE path: the instruction becomes a NOP; its
		// physical register is freed, a predicated store is dropped.
		m.Stats.RetiredFalse++
		if u.isStore {
			if !m.sbRetireHead(u) {
				m.fail(u, "store buffer out of order at false-store retire")
			}
		}
		return
	}

	// Architectural commit.
	if u.hasDst {
		m.commitRegs[u.dstArch] = u.dstVal
	}
	if u.isStore {
		if !m.sbRetireHead(u) {
			m.fail(u, "store buffer out of order at store retire")
			return
		}
		m.dmem.Write(u.addr, u.dstVal)
		m.hier.DataLatency(u.addr) // allocate the line; latency is hidden
	}

	if !m.oracle.onPath && m.oracle.em.Count == m.retired && m.oracle.em.PC == u.pc {
		// Retirement caught up with a paused oracle: the retiring
		// instruction is architecturally the oracle's next step, so the
		// oracle can safely follow the retirement stream until fetch
		// lockstep can re-form (see fetchStage's drained-machine resync).
		m.oracle.em.StepInto(&m.oracle.st) //nolint:errcheck // a failed step logs nothing, which the check reports
	}
	if m.cfg.CheckRetirement {
		m.checkRetired(u)
		if m.runErr != nil {
			return
		}
	}

	m.Stats.RetiredInsts++
	m.retired++
	if m.retired%oracleTrimEvery == 0 {
		// Retired instructions can never be squashed: shrink the
		// oracle's rewind window.
		m.oracle.trim(m.retired)
	}

	if m.merge != nil {
		m.mergeObserve(u)
	}

	if u.inst.Op == isa.BR {
		m.Stats.RetiredBranches++
		if u.mispredicted {
			m.Stats.RetiredMispredicts++
		}
		m.pred.Update(u.pc, u.fetchGHR, u.actualTaken)
		m.confEst.Update(u.pc, u.fetchGHR, !u.mispredicted)
		if u.actualTaken {
			m.btb.Insert(u.pc, u.actualNext)
		}
	} else if u.inst.IsIndirect() {
		m.itc.Update(u.pc, u.fetchGHR, u.actualNext)
	}

	if u.inst.Op == isa.HALT {
		m.halted = true
		m.Stats.HaltRetired = true
		m.flushWPAll()
	}
}

// mergeObserve feeds the retired predicate-TRUE instruction stream to the
// merge-point predictor — the same architectural control flow the offline
// profiler sees, so learned CFMs match what annotations would select.
// Training is opened only for low-confidence or mispredicted branches:
// those are the only entry candidates, and gating keeps the bounded table
// from churning on well-predicted branches.
func (m *Machine) mergeObserve(u *uop) {
	train := false
	if u.inst.Op == isa.BR {
		train = u.lowConf || u.mispredicted
	}
	m.merge.Observe(u.pc, u.inst.Op, u.actualTaken, train)
}

// checkRetired compares the retiring instruction with the fetch
// oracle's log of step retired+1: the retired predicate-TRUE instruction
// stream must be exactly the program's architectural execution. The log
// is never trimmed past retirement, so a missing record is a retirement
// the program never made (after HALT, or a step the oracle could not run).
func (m *Machine) checkRetired(u *uop) {
	pc, val, addr, ok := m.oracle.em.Logged(m.retired + 1)
	switch {
	case !ok:
		m.fail(u, fmt.Sprintf("golden model has no step %d", m.retired+1))
	case pc != u.pc:
		m.fail(u, fmt.Sprintf("golden model at pc %d", pc))
	case (u.hasDst || u.isLoad) && val != u.dstVal:
		m.fail(u, fmt.Sprintf("dst %v = %d, golden %d", u.dstArch, u.dstVal, val))
	case u.isStore && (addr&^7 != u.addr&^7 || val != u.dstVal):
		m.fail(u, fmt.Sprintf("store addr/val %d/%d, golden %d/%d", u.addr, u.dstVal, addr, val))
	}
}

func (m *Machine) fail(u *uop, msg string) {
	m.runErr = fmt.Errorf("core: cycle %d seq %d pc %d (%v %v): %s",
		m.cycle, u.seq, u.pc, u.kind, u.inst, msg)
}
