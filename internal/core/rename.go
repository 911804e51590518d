package core

import (
	"dmp/internal/isa"
	"fmt"
)

// ratEntry maps one architectural register to its current producer — a
// uop, named by (slot, gen), in flight or retired but still parked (see
// reclaimRetired) — or to a literal value.
type ratEntry struct {
	val uint64
	u   uopRef // producing uop; 0 means val holds the value
	gen uint32 // u's generation when the entry was made
}

// producerEntry names u as the producer of a register.
func producerEntry(u *uop) ratEntry { return ratEntry{u: u.ref, gen: u.gen} }

// pinEntry marks e's producer as reachable in a reclaimRetired pass.
func (m *Machine) pinEntry(e ratEntry, pass uint32) {
	if e.u != 0 {
		if u := m.arena.at(e.u); u.gen == e.gen {
			u.pin = pass
		}
	}
}

// rat is the register alias table. Copies of the whole struct are the
// checkpoints CP1/CP2 and the per-branch recovery checkpoints. The
// "modified in dynamic predication mode" (M) bits, used to find the
// registers that need select-uops (Section 2.4), are one mask beside the
// entries: bit r is register r's.
type rat struct {
	e [isa.NumRegs]ratEntry
	m uint64
}

// The M mask has a bit per architectural register.
const _ = uint64(1) << (isa.NumRegs - 1)

// ratCheckpoint is a saved copy of the RAT.
type ratCheckpoint = rat

// set maps reg to e and sets or clears its M bit.
func (r *rat) set(reg isa.Reg, e ratEntry, modified bool) {
	r.e[reg] = e
	bit := uint64(1) << (reg % isa.NumRegs)
	if modified {
		r.m |= bit
	} else {
		r.m &^= bit
	}
}

func (r *rat) clearM() { r.m = 0 }

// sameSource reports whether two RAT entries name the same physical value.
func sameSource(a, b ratEntry) bool {
	if a.u != 0 || b.u != 0 {
		return a.u == b.u && a.gen == b.gen
	}
	return a.val == b.val
}

// renameStage renames and dispatches up to FetchWidth uops per cycle.
// Pending select-uops (from an exit.pred that reached rename) block the
// normal stream and are inserted at SelectUopsPerCycle per cycle,
// modelling the RAT port limit (Section 2.4).
//
//dmp:hotpath
func (m *Machine) renameStage() {
	width := m.cfg.FetchWidth

	if len(m.selPending) > 0 {
		ports := m.cfg.SelectUopsPerCycle
		for ports > 0 && width > 0 && len(m.selPending) > 0 && len(m.rob) < m.cfg.ROBSize {
			req := m.selPending[0]
			m.selPending = m.selPending[1:]
			m.insertSelect(req)
			ports--
			width--
		}
		if len(m.selPending) > 0 {
			return
		}
		// The paper releases the checkpoint *hardware* here; we keep the
		// saved copies on the episode because a misprediction inside the
		// alternate path can rewind fetch to before the exit.pred, which
		// re-inserts the select-uops from the same CP2.
		m.selEp = nil
	}

	for width > 0 {
		if len(m.feq) == 0 {
			return
		}
		u := m.arena.at(m.feq[0])
		if u.renameAt > m.cycle {
			return
		}
		if len(m.rob) >= m.cfg.ROBSize {
			return
		}
		if u.inst.Op == isa.ST && u.kind == kindInst && m.sbFull() {
			return
		}
		m.feq = m.feq[1:]
		m.renameOne(u)
		width--
		if len(m.selPending) > 0 {
			// exit.pred just renamed: selects start next cycle.
			return
		}
	}
}

// renameOne renames a single uop and dispatches it into the ROB.
//
//dmp:hotpath
func (m *Machine) renameOne(u *uop) {
	u.renamed = true
	if m.probe != nil {
		m.probeUop(StageRename, u)
	}
	// Marker rename actions run even for episodes that already resolved
	// (the predicate is then known, but uops still in the queue behind
	// the marker need the same RAT transformations); they are skipped
	// only for *converted* episodes, whose alternate-side queue entries
	// were dropped at conversion.
	switch u.kind {
	case kindEnterPred:
		// Section 2.4: clear all M bits, then checkpoint CP1.
		if ep := m.epOf(u); ep != nil && !ep.converted {
			m.curRAT(u).clearM()
			m.checkpointInto(&ep.cp1, m.curRAT(u))
		}
		m.finishMarker(u)
	case kindEnterAlt:
		// Checkpoint CP2 (end of predicted path), then restore CP1 so
		// the alternate path renames with pre-branch mappings.
		if ep := m.epOf(u); ep != nil && !ep.converted && ep.cp1 != 0 {
			m.checkpointInto(&ep.cp2, m.curRAT(u))
			*m.curRAT(u) = *m.ckpts.at(ep.cp1)
		}
		m.finishMarker(u)
	case kindExitPred:
		if ep := m.epOf(u); ep != nil && !ep.converted && ep.cp2 != 0 {
			m.queueSelects(ep, u.seq)
		}
		m.finishMarker(u)
	case kindFork:
		m.renameFork(u)
	case kindInst:
		m.renameInst(u)
	default:
		panic("core: renaming unexpected uop kind")
	}
}

// finishMarker dispatches a marker uop as already-executed.
//
//dmp:hotpath
func (m *Machine) finishMarker(u *uop) {
	u.done = true
	m.Stats.ExecutedMarkers++
	m.rob = pushQueue(m.robBuf, m.rob, u.ref)
	if m.probe != nil {
		m.probeUop(StageComplete, u)
	}
}

// curRAT returns the RAT a uop renames against (per-stream during
// dual-path mode).
func (m *Machine) curRAT(u *uop) *rat {
	if m.dualRats[u.stream] != nil {
		return m.dualRats[u.stream]
	}
	return &m.rat
}

// renameInst renames a program instruction.
//
//dmp:hotpath
func (m *Machine) renameInst(u *uop) {
	in := &u.inst
	r := m.curRAT(u)

	u.numSrc = 2
	if in.Uses1() {
		u.src1, u.src1Ready = m.operandFrom(r.e[m.regIdx(in.Src1)], u, 1, in.Src1)
	} else {
		u.src1Ready = true
	}
	if in.Uses2() {
		u.src2, u.src2Ready = m.operandFrom(r.e[m.regIdx(in.Src2)], u, 2, in.Src2)
	} else {
		u.src2Ready = true
	}

	if in.HasDst() && in.Dst != isa.Zero {
		u.hasDst = true
		u.dstArch = in.Dst
		r.set(in.Dst, producerEntry(u), true)
	}

	switch in.Op {
	case isa.BR, isa.JR, isa.CALLR, isa.RET, isa.JMP, isa.CALL:
		// Per-branch RAT checkpoint for misprediction recovery (taken
		// after the instruction's own destination renames, so a
		// mispredicted CALLR recovers with its link value mapped).
		u.checkpoint = m.snapshotRAT(r)
	case isa.LD:
		u.isLoad = true
	case isa.ST:
		u.isStore = true
		m.sbAlloc(u)
	}

	m.rob = pushQueue(m.robBuf, m.rob, u.ref)
	m.enqueueReady(u)
}

// regIdx bounds a register name (defensive; Reg is always < NumRegs).
func (m *Machine) regIdx(r isa.Reg) int { return int(r) % isa.NumRegs }

// operandFrom renames one source operand from a RAT entry, registering
// the consumer with the producer if the value is not ready yet. It
// returns the value and whether it is ready; a value not ready yet is
// the producer's seq.
//
//dmp:hotpath
func (m *Machine) operandFrom(e ratEntry, u *uop, which int32, reg isa.Reg) (val uint64, ready bool) {
	if reg == isa.Zero {
		return 0, true
	}
	if e.u == 0 {
		return e.val, true
	}
	p := m.arena.at(e.u)
	if p.gen != e.gen {
		// The producer's slot was recycled: it was squashed (a RAT must
		// never name a squashed producer, see below), or it retired while
		// a root reclaimRetired does not scan still named it. Either way
		// the slot now holds another uop, so fail loudly rather than read
		// its value.
		m.fail(u, fmt.Sprintf("renamed %v against a recycled producer (generation %d, slot now at %d)", reg, e.gen, p.gen))
		return 0, true
	}
	if p.squashed && !p.done {
		// A RAT entry must never name a squashed producer: its value
		// will never broadcast. This is a checkpoint-restore protocol
		// bug, so fail loudly rather than deadlock.
		sq := m.squashOf(p)
		m.fail(u, fmt.Sprintf("renamed %v against squashed producer seq=%d pc=%d %v (squashed by seq=%d at cycle %d)", reg, p.seq, p.pc, p.inst, sq.by, sq.at))
	}
	if p.done {
		return p.dstVal, true
	}
	m.addWaiter(p, u, which)
	return p.seq, false
}

// queueSelects diffs CP2 against the active RAT and queues one
// select-uop per architectural register whose mapping differs and was
// modified on either path (the M-bit OR of Section 2.4).
func (m *Machine) queueSelects(ep *episode, exitSeq uint64) {
	cp2 := m.ckpts.at(ep.cp2)
	r := &m.rat
	m.selPending = m.selBuf[:0]
	for i := 0; i < isa.NumRegs; i++ {
		if isa.Reg(i) == isa.Zero {
			continue
		}
		// The hardware resets the M bits as its priority encoder emits
		// each select-uop; we leave them intact so a flush that rewinds
		// fetch to inside the alternate path can regenerate the same
		// select-uops from the same checkpoints.
		if (cp2.m|r.m)&(1<<i) == 0 {
			continue
		}
		if sameSource(cp2.e[i], r.e[i]) {
			continue
		}
		m.selPending = append(m.selPending, selReq{reg: isa.Reg(i), fromCP2: cp2.e[i], fromRAT: r.e[i]})
	}
	m.selEp = ep
	// Select-uops take the exit.pred marker's sequence number so they sit
	// at the marker's point in program order: younger uops were already
	// fetched (with larger seqs) before the selects were created, and
	// every age comparison (flush cuts, scheduling) relies on ROB
	// positions being seq-ordered.
	m.selExitSeq = exitSeq
}

// insertSelect dispatches one select-uop: dst = p1 ? CP2 value
// (predicted path) : active value (alternate path).
//
//dmp:hotpath
func (m *Machine) insertSelect(req selReq) {
	ep := m.selEp
	su := m.arena.alloc(m.selExitSeq, ep.divergePC, kindSelect)
	su.ep, su.selPred = ep.ref, ep.predID1
	su.hasDst, su.dstArch = true, req.reg
	su.numSrc, su.renamed = 3, true
	if m.probe != nil {
		// Select-uops skip the fetch queue; report both stages here.
		m.probeUop(StageFetch, su)
		m.probeUop(StageRename, su)
	}
	su.src1, su.src1Ready = m.operandFrom(req.fromCP2, su, 1, req.reg)
	su.src2Ready = true
	su.src3, su.src3Ready = m.operandFrom(req.fromRAT, su, 3, req.reg)
	m.rat.set(req.reg, producerEntry(su), false)
	m.rob = pushQueue(m.robBuf, m.rob, su.ref)
	m.preds.await(su.selPred, su.ref)
	m.enqueueReady(su)
}

// wakePred re-evaluates uops that were waiting for a predicate broadcast.
func (m *Machine) wakePred(ws []uopRef) {
	for _, w := range ws {
		m.enqueueReady(m.arena.at(w))
	}
}

// renameFork snapshots the active RAT into the two dual-path stream RATs.
func (m *Machine) renameFork(u *uop) {
	if ep := m.epOf(u); ep != nil && ep.phase != dpDead {
		m.dualStore[0], m.dualStore[1] = m.rat, m.rat
		m.dualRats[0], m.dualRats[1] = &m.dualStore[0], &m.dualStore[1]
	}
	m.finishMarker(u)
}
