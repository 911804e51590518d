package core

import "dmp/internal/isa"

// issueStage selects ready uops oldest-first, up to IssueWidth per cycle
// with LoadPorts data-cache ports, executes them with real data values,
// and schedules their completion.
//
//dmp:hotpath
func (m *Machine) issueStage() {
	width := m.cfg.IssueWidth
	loadPorts := m.cfg.LoadPorts

	// Stalled loads retry before newly ready work (they are older). The
	// replay list is kept seq-ordered at insertion (tryIssueLoad), so no
	// per-cycle sort is needed.
	if len(m.replayLoads) > 0 {
		still := m.replayLoads[:0]
		for _, r := range m.replayLoads {
			ld := m.arena.at(r)
			if ld.squashed || ld.done {
				continue
			}
			if width <= 0 || loadPorts <= 0 {
				still = append(still, r)
				continue
			}
			if m.tryIssueLoad(ld) {
				width--
				loadPorts--
			} else {
				still = append(still, r)
			}
		}
		m.replayLoads = still
	}

	if len(m.readyQ) == 0 || width <= 0 {
		return
	}
	rest := m.readyQ[:0]
	for _, r := range m.readyQ {
		u := m.arena.at(r)
		if u.squashed || u.issued {
			continue
		}
		if width <= 0 {
			rest = append(rest, r)
			continue
		}
		if u.isLoad {
			if loadPorts <= 0 {
				rest = append(rest, r)
				continue
			}
			u.inReady = false
			if m.tryIssueLoad(u) {
				width--
				loadPorts--
			}
			continue
		}
		u.inReady = false
		m.execute(u)
		width--
	}
	m.readyQ = rest
}

// tryIssueLoad computes the load address, consults the store buffer, and
// either issues the load or parks it for replay. Returns whether it
// issued.
//
//dmp:hotpath
func (m *Machine) tryIssueLoad(ld *uop) bool {
	ld.addr = ld.src1 + uint64(ld.inst.Imm)
	ld.addrValid = true
	val, fromSB, stall := m.loadLookup(ld)
	if stall {
		if !ld.inReplay {
			ld.inReplay = true
			m.replayLoads = m.insertBySeq(m.replayLoads, ld)
			m.Stats.LoadStalls++
		}
		return false
	}
	ld.inReplay = false
	ld.issued = true
	ld.dstVal = val
	lat := 1
	if !fromSB {
		lat = m.hier.DataLatency(ld.addr)
		if lat > 2 {
			m.Stats.L1DMisses++
		}
	}
	m.Stats.ExecutedInsts++
	m.schedule(ld, m.cycle+uint64(lat))
	if m.probe != nil {
		m.probeUop(StageIssue, ld)
	}
	return true
}

// execute computes a non-load uop's result immediately and schedules its
// completion after its latency.
//
//dmp:hotpath
func (m *Machine) execute(u *uop) {
	u.issued = true
	if m.probe != nil {
		m.probeUop(StageIssue, u)
	}
	lat := 1
	switch u.kind {
	case kindSelect:
		// The predicate is known (issue is gated on it): mux the two
		// paths' values (Section 2.4).
		if m.preds.value(u.selPred) {
			u.dstVal = u.src1
		} else {
			u.dstVal = u.src3
		}
		m.Stats.ExecutedSelects++
	case kindInst:
		in := u.inst
		lat = in.Latency()
		switch {
		case in.IsALU():
			u.dstVal = isa.EvalALU(in, u.src1, u.src2)
		case in.Op == isa.ST:
			u.addr = u.src1 + uint64(in.Imm)
			u.addrValid = true
			u.dstVal = u.src2
		case in.Op == isa.BR:
			u.actualTaken = in.Cond.Eval(u.src1, u.src2)
			if u.actualTaken {
				u.actualNext = in.Target
			} else {
				u.actualNext = u.pc + 1
			}
		case in.Op == isa.JMP:
			u.actualNext = in.Target
		case in.Op == isa.CALL:
			u.dstVal = u.pc + 1
			u.actualNext = in.Target
		case in.Op == isa.CALLR:
			u.dstVal = u.pc + 1
			u.actualNext = u.src1
		case in.Op == isa.JR, in.Op == isa.RET:
			u.actualNext = u.src1
		case in.Op == isa.HALT, in.Op == isa.NOP:
			u.actualNext = u.pc
		}
		m.Stats.ExecutedInsts++
	default:
		// Markers are completed at rename and never issue.
		panic("core: executing a marker uop")
	}
	m.schedule(u, m.cycle+uint64(lat))
}

// completeStage drains completion events due this cycle: values
// broadcast to waiting consumers, control instructions resolve (possibly
// flushing the pipeline or ending a dynamic predication episode).
//
//dmp:hotpath
func (m *Machine) completeStage() {
	for len(m.events) > 0 && m.events[0].at <= m.cycle {
		u := m.arena.at(m.events.pop().u)
		if u.squashed {
			// This event was the uop's last remaining reference (the flush
			// purged every other structure; see reclaimSquashed).
			m.recycle(u)
			continue
		}
		u.done = true
		if m.probe != nil {
			m.probeUop(StageComplete, u)
		}
		// Value broadcast.
		for i := u.wHead; i != 0; i = m.wnodes[i].next {
			w := m.wnodes[i]
			c := m.arena.at(w.u)
			if c.squashed {
				continue
			}
			switch w.which {
			case 1:
				c.src1, c.src1Ready = u.dstVal, true
			case 2:
				c.src2, c.src2Ready = u.dstVal, true
			case 3:
				c.src3, c.src3Ready = u.dstVal, true
			}
			m.enqueueReady(c)
		}
		m.freeWaiters(u)
		if u.kind == kindInst && u.inst.IsControl() && u.inst.Op != isa.HALT {
			m.resolveControl(u)
		}
	}
}

// resolveControl handles branch resolution: misprediction recovery,
// predicate production for diverge branches, and the Table-1 exit cases.
func (m *Machine) resolveControl(u *uop) {
	u.resolved = true
	switch u.inst.Op {
	case isa.JMP, isa.CALL:
		return // direct targets never mispredict
	}
	u.mispredicted = u.actualNext != u.predictedNext

	// A resolved branch on a known-FALSE predicated path is a NOP: it
	// must not redirect the machine (Section 2.5).
	if u.predID != 0 && m.preds.known(u.predID) && !m.preds.value(u.predID) {
		return
	}

	// A diverge branch's u.ep is its own episode; a converted episode is
	// dead, so its branch resolves as a normal one.
	if u.isDiverge {
		if ep := m.epOf(u); ep != nil && ep.phase != dpDead {
			if ep.dual {
				m.resolveFork(u, ep)
			} else {
				m.resolveDiverge(u, ep)
			}
			return
		}
	}
	if u.mispredicted {
		if m.dualEp != nil && u.seq > m.dualEp.divergeSeq {
			m.conservativeDualAbort(u, m.dualEp)
			return
		}
		m.recoverFrom(u)
	}
}

// resolveDiverge implements Table 1: the six ways a dynamic predication
// episode ends when its diverge branch resolves.
func (m *Machine) resolveDiverge(u *uop, ep *episode) {
	correct := !u.mispredicted
	p1 := u.actualTaken == ep.predictedTaken // predicted-path predicate value

	switch ep.phase {
	case dpExited:
		// Cases 1 and 2: both paths fetched, select-uops inserted (or in
		// flight). Just produce the predicates; no fetch action. Case 2
		// is the win: a misprediction without a flush.
		m.wakePred(m.preds.broadcast(ep.predID1, p1))
		if ep.predID2 != 0 {
			m.wakePred(m.preds.broadcast(ep.predID2, !p1))
		}
		if correct {
			m.setExit(ep, Exit1)
		} else {
			m.setExit(ep, Exit2)
		}
		m.teardownEpisode(ep)

	case dpAlternate:
		if correct {
			// Case 3: the alternate path is the wrong path and fetch is
			// still on it. Restore the predicted path's end state and
			// refetch from the CFM point; no flush (the alternate
			// instructions become NOPs via their FALSE predicate).
			m.wakePred(m.preds.broadcast(ep.predID1, true))
			if ep.predID2 != 0 {
				m.wakePred(m.preds.broadcast(ep.predID2, false))
			}
			m.dropEpisodeAltFromFEQ(ep)
			if ep.cp2 != 0 {
				m.rat = *m.ckpts.at(ep.cp2)
			}
			m.fetchPC = ep.cfm
			m.ghr = ep.ghrAtCFM
			m.ras.Restore(ep.rasAtCFM)
			m.fetchHalted = false
			m.fetchStallUntil = 0
			m.setExit(ep, Exit3)
			m.teardownEpisode(ep)
			if u.onPath && m.oracle.resumeAt(m.fetchPC) {
				m.closeWP()
			}
		} else {
			// Case 4: fetch is on the alternate path, which is the
			// correct path. No special action: predication simply ends
			// and fetch continues past the CFM point without select-uops
			// (the predicted path's renames were already superseded when
			// CP1 was restored).
			m.wakePred(m.preds.broadcast(ep.predID1, false))
			if ep.predID2 != 0 {
				m.wakePred(m.preds.broadcast(ep.predID2, true))
			}
			m.setExit(ep, Exit4)
			m.teardownEpisode(ep)
		}

	case dpPredicted:
		if correct {
			// Case 5: still on the predicted path; predication just
			// stops and fetch continues as the baseline would.
			m.wakePred(m.preds.broadcast(ep.predID1, true))
			m.setExit(ep, Exit5)
			m.teardownEpisode(ep)
		} else {
			// Case 6: the predicted path is wrong and the alternate was
			// never fetched: flush exactly like the baseline.
			m.wakePred(m.preds.broadcast(ep.predID1, false))
			m.setExit(ep, Exit6)
			m.teardownEpisode(ep)
			m.recoverFrom(u)
		}

	default:
		// Dead episodes resolve as normal branches (resolveControl routes
		// them past this function, so this is only a safety net).
		if u.mispredicted {
			m.recoverFrom(u)
		}
	}
}

func (m *Machine) setExit(ep *episode, c ExitCase) {
	if ep.exitCase == ExitNone {
		ep.exitCase = c
		m.Stats.ExitCases[c]++
		if m.probe != nil {
			m.probeEpisode(EpResolve, ep)
		}
	}
}

// dropFEQ removes ep's not-yet-renamed uops that drop selects from the
// front-end queue and recycles them.
func (m *Machine) dropFEQ(ep *episode, drop func(*uop) bool) {
	kept := m.feq[:0]
	for _, r := range m.feq {
		if q := m.arena.at(r); q.ep == ep.ref && drop(q) {
			q.squashed = true
			if m.probe != nil {
				m.probeUop(StageSquash, q)
			}
			m.recycleFEQ(q)
			continue
		}
		kept = append(kept, r)
	}
	m.feq = kept
}

// altPath reports whether u belongs to its episode's alternate path: an
// alternate-path uop, or the enter.alt / exit.pred marker around it.
func (u *uop) altPath() bool {
	return u.onAlt || u.kind == kindEnterAlt || u.kind == kindExitPred
}

// dropEpisodeAltFromFEQ removes the episode's not-yet-renamed
// alternate-path uops and markers from the front-end queue.
func (m *Machine) dropEpisodeAltFromFEQ(ep *episode) {
	m.dropFEQ(ep, (*uop).altPath)
	if m.feEp == ep {
		m.feEp = nil
	}
}

// recoverFrom flushes the pipeline after a mispredicted branch: squash
// everything younger, restore the branch's RAT checkpoint and fetch-side
// snapshot (including dynamic predication state, paper footnote 11), and
// redirect fetch to the resolved target.
func (m *Machine) recoverFrom(b *uop) {
	m.Stats.Flushes++

	// Squash younger ROB entries.
	cut := len(m.rob)
	for i, r := range m.rob {
		if m.arena.at(r).seq > b.seq {
			cut = i
			break
		}
	}
	dead := m.rob[cut:]
	for _, r := range dead {
		u := m.arena.at(r)
		u.squashed = true
		m.noteSquash(u, b.seq)
		if m.probe != nil {
			m.probeUop(StageSquash, u)
		}
	}
	m.rob = m.rob[:cut]

	m.sbSquash(b.seq)

	for _, r := range m.feq {
		q := m.arena.at(r)
		q.squashed = true
		if m.probe != nil {
			m.probeUop(StageSquash, q)
		}
		// Pre-rename uops are unreferenced outside the queue (episodes
		// copy what they read of their diverge branch).
		m.recycleFEQ(q)
	}
	m.feq = m.feq[:0]

	if m.selEp != nil && m.selExitSeq > b.seq {
		m.selPending = nil
		m.selEp = nil
	}

	// Kill episodes whose diverge branch was squashed.
	for _, ep := range m.episodes {
		if ep.divergeSeq > b.seq {
			m.Stats.ExitCases[0]++
			if m.probe != nil {
				m.probeEpisode(EpSquash, ep)
			}
			m.teardownEpisode(ep)
		}
	}

	// Restore rename state.
	if b.checkpoint != 0 {
		m.rat = *m.ckpts.at(b.checkpoint)
	}

	// Restore fetch state.
	snap := m.snaps.at(b.fetchSnap)
	m.fetchPC = b.actualNext
	ghr := snap.ghr
	if b.inst.Op == isa.BR {
		ghr = ghr.SetLast(b.actualTaken)
	}
	m.ghr = ghr
	m.ras.Restore(snap.ras)
	m.fetchHalted = false
	m.fetchStallUntil = 0

	// Restore dynamic predication fetch state (resume the episode if it
	// is still live and unresolved).
	m.feEp = nil
	if snap.epID != 0 {
		if ep := m.episodes[snap.epID]; ep != nil && ep == m.live && m.divergeInFlight(ep) {
			ep.phase = snap.phase
			ep.altFetched = snap.altFetched
			ep.cfmChosen = snap.cfmChosen
			ep.cfm = snap.cfm
			if ep.phase == dpPredicted {
				m.dropCheckpoint(&ep.cp2)
				ep.predID2 = 0
			}
			if ep.phase == dpPredicted || ep.phase == dpAlternate {
				m.feEp = ep
			}
		}
	}

	// Dual-path: any surviving fork collapses (see dual.go).
	m.collapseDualOnFlush(b)

	// Oracle resync: if the flushed branch was itself executed by the
	// oracle, rewind the oracle to the state immediately after it — the
	// redirect target — regardless of whether the oracle is currently
	// paused there or ahead of it (it may have executed post-CFM or
	// post-fork work this flush just squashed).
	if b.oracleHasStep && m.oracle.rewindTo(b.oracleCount) {
		m.closeWP()
	}

	// With every structure that could still name a squashed uop now
	// purged or restored, return the dead uops' storage to the arena.
	m.reclaimSquashed(dead)
}

// squashRec records who squashed a ROB entry: the flushing branch's seq
// and the cycle. Only the stale-producer failure in operandFrom reads it.
type squashRec struct{ by, at uint64 }

// noteSquash records in the side table, by slot, that a flush by the
// branch with seq by squashed the ROB entry u.
func (m *Machine) noteSquash(u *uop, by uint64) {
	m.squashLog = bySlot(m.squashLog, u.ref)
	m.squashLog[u.ref] = squashRec{by: by, at: m.cycle}
}

// squashOf returns the side-table record of the flush that squashed the
// ROB entry u.
func (m *Machine) squashOf(u *uop) squashRec {
	if int(u.ref) < len(m.squashLog) {
		return m.squashLog[u.ref]
	}
	return squashRec{}
}
