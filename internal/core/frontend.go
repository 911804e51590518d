package core

import (
	"dmp/internal/bpred"
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// fetchSnapshot is the fetch-side state carried by every control uop so a
// misprediction recovery can restore the front end, including the state
// of dynamic predication mode (paper footnote 11: the CFM register and
// the phase are part of every branch checkpoint).
type fetchSnapshot struct {
	ghr        bpred.GHR      // speculative GHR after this instruction's effect
	ras        bpred.RASState // RAS after this instruction's effect
	epID       int            // live episode at this instruction (0 = none)
	phase      dpPhase
	altFetched int
	cfmChosen  bool
	cfm        uint64
}

// snapFetch captures the fetch-side state for a control uop in a
// snapshot from the pool (salvaged from retired and squashed control
// uops), keeping its RAS copy's backing array.
//
//dmp:hotpath
func (m *Machine) snapFetch() int32 {
	i, grew := m.snaps.get()
	for k := range grew {
		// Size the new snapshots' RAS copies now, not one at first use.
		m.ras.SnapshotInto(&grew[k].ras)
	}
	s := m.snaps.at(i)
	s.ghr = m.ghr
	m.ras.SnapshotInto(&s.ras)
	if ep := m.feEp; ep != nil {
		s.epID, s.phase, s.altFetched, s.cfmChosen, s.cfm = ep.id, ep.phase, ep.altFetched, ep.cfmChosen, ep.cfm
	} else {
		s.epID, s.phase, s.altFetched, s.cfmChosen, s.cfm = 0, 0, 0, false, 0
	}
	return i
}

// fetchStage fetches up to FetchWidth instructions, at most MaxBrPerFetch
// conditional branches, ending at the first predicted-taken branch
// (Table 2's front end). It also runs the dynamic-predication fetch FSM:
// predicted path → alternate path → exit (Section 2.3).
//
//dmp:hotpath
func (m *Machine) fetchStage() {
	if m.cycle < m.fetchStallUntil {
		return
	}
	if m.dualActive {
		m.fetchDualStage()
		return
	}
	if m.fetchHalted || len(m.feq) >= m.feqCap {
		return
	}
	// Drained-machine resync: with an empty window and retirement at the
	// oracle's frontier, fetch provably sits at the architectural next
	// instruction, so a paused oracle can re-form lockstep even when its
	// original pause point was absorbed into a predicated path it never
	// followed.
	if !m.oracle.onPath && !m.oracle.em.Halted &&
		len(m.rob) == 0 && len(m.feq) == 0 &&
		m.oracle.em.Count == m.retired && m.oracle.em.PC == m.fetchPC {
		m.oracle.onPath = true
		m.closeWP()
	}
	// Instruction cache: a miss stalls the whole fetch group.
	if lat := m.hier.InstLatency(m.fetchPC * 8); lat > 2 {
		m.fetchStallUntil = m.cycle + uint64(lat)
		m.Stats.L1IMisses++
		return
	}

	slots, brs := m.cfg.FetchWidth, 0
	for slots > 0 && len(m.feq) < m.feqCap && !m.fetchHalted {
		if ep := m.feEp; ep != nil {
			switch ep.phase {
			case dpAlternate:
				if ep.altFetched >= ep.exitThreshold {
					m.ev.EarlyExit = true
					if m.cfg.EarlyExit {
						m.earlyExit(ep)
						slots--
						continue
					}
				}
				if m.fetchPC == ep.cfm {
					m.exitPredication(ep)
					slots--
					continue
				}
			case dpPredicted:
				m.noteCFMTest(ep, m.fetchPC)
				if m.cfmHit(ep, m.fetchPC) {
					m.switchToAlternate(ep)
					slots--
					continue
				}
			}
		}
		redirected, isCond := m.fetchOne()
		slots--
		if isCond {
			brs++
		}
		if redirected {
			break // fetch ends at the first taken branch
		}
		if brs >= m.cfg.MaxBrPerFetch {
			break
		}
	}
}

// cfmHit checks the fetch address against the episode's CFM points. Until
// the predicted path has chosen a CFM, all marked points are compared
// (the multiple-CFM CAM of Section 2.7.1); afterwards only the chosen one
// ends the alternate path.
func (m *Machine) cfmHit(ep *episode, pc uint64) bool {
	if ep.cfmChosen {
		return pc == ep.cfm
	}
	for _, c := range ep.cfms {
		if c == pc {
			return true
		}
	}
	return false
}

// fetchOne fetches the instruction at fetchPC, runs the oracle, predicts
// control flow, decides dynamic-predication entry, and appends the uop to
// the front-end queue. It reports whether fetch redirected (ending the
// group) and whether the instruction was a conditional branch.
func (m *Machine) fetchOne() (redirected, isCond bool) {
	pc := m.fetchPC
	u := m.arena.alloc(m.nextSeq(), pc, kindInst)
	u.inst = m.prog.At(pc)
	in := &u.inst
	u.stream = uint8(m.fetchStream)
	if ep := m.feEp; ep != nil {
		u.ep = ep.ref
		if ep.phase == dpAlternate {
			u.onAlt = true
			u.predID = ep.predID2
			ep.altFetched++
		} else {
			u.predID = ep.predID1
		}
	} else if m.dualActive {
		u.ep = m.dualEp.ref
		if m.fetchStream == 1 {
			u.onAlt = true
			u.predID = m.dualEp.predID2
		} else {
			u.predID = m.dualEp.predID1
		}
	}
	m.stepOracle(u)
	m.noteFetched(u)
	u.fetchGHR = m.ghr

	switch in.Op {
	case isa.BR:
		isCond = true
		redirected = m.fetchBranch(u)
	case isa.JMP:
		u.predictedNext = in.Target
		m.pushUop(u)
		u.fetchSnap = m.snapFetch()
		m.redirectFetch(in.Target)
		redirected = true
	case isa.CALL:
		u.predictedNext = in.Target
		m.ras.Push(pc + 1)
		m.pushUop(u)
		u.fetchSnap = m.snapFetch()
		m.redirectFetch(in.Target)
		redirected = true
	case isa.CALLR:
		m.ras.Push(pc + 1)
		u.predictedNext = m.itc.Lookup(pc, m.ghr)
		m.pushUop(u)
		u.fetchSnap = m.snapFetch()
		m.redirectFetch(u.predictedNext)
		redirected = true
	case isa.JR:
		u.predictedNext = m.itc.Lookup(pc, m.ghr)
		m.pushUop(u)
		u.fetchSnap = m.snapFetch()
		m.redirectFetch(u.predictedNext)
		redirected = true
	case isa.RET:
		u.predictedNext = m.ras.Pop()
		m.pushUop(u)
		u.fetchSnap = m.snapFetch()
		m.redirectFetch(u.predictedNext)
		redirected = true
	case isa.HALT:
		u.predictedNext = pc
		m.pushUop(u)
		m.fetchHalted = true
		redirected = true
	default:
		u.predictedNext = pc + 1
		m.pushUop(u)
		m.fetchPC = pc + 1
	}
	return redirected, isCond
}

// stepOracle offers the fetched instruction to the fetch oracle and
// records on-path/wrong-path bookkeeping.
func (m *Machine) stepOracle(u *uop) {
	if m.dualActive && int(u.stream) != m.oracleStream {
		// The oracle follows only the stream it knows to be correct.
		return
	}
	wasOn := m.oracle.onPath
	if st := m.oracle.stepIfAt(u); st != nil {
		u.onPath = true
		u.oracleHasStep = true
		u.oracleTaken = st.Taken
		u.oracleCount = m.oracle.em.Count
		m.feedWPWatchers(u.pc)
	} else if wasOn && !m.oracle.onPath {
		// Fetch just left the correct path at this instruction.
		m.openWP()
		m.recordWrongFetch(u.pc)
	} else if !m.oracle.onPath {
		m.recordWrongFetch(u.pc)
	}
}

// fetchBranch predicts a conditional branch, decides dynamic predication
// entry, and redirects fetch if predicted taken. It returns whether fetch
// redirected.
func (m *Machine) fetchBranch(u *uop) bool {
	in := u.inst
	taken := m.pred.Predict(u.pc, m.ghr)
	if m.cfg.Mode == ModePerfect && u.oracleHasStep {
		taken = u.oracleTaken
	}
	u.predictedTaken = taken
	if taken {
		u.predictedNext = in.Target
	} else {
		u.predictedNext = u.pc + 1
	}
	u.lowConf = m.lowConfidence(u)
	if u.lowConf && u.oracleHasStep {
		if u.predictedTaken == u.oracleTaken {
			m.Stats.LowConfCorrect++
		} else {
			m.Stats.LowConfWrong++
		}
	}

	entered := m.maybeEnterDP(u)
	m.pushUop(u)
	// Speculative history update with the predicted outcome.
	m.ghr = m.ghr.Push(taken)
	u.fetchSnap = m.snapFetch()
	if entered {
		if ep := m.epOf(u); ep.dual {
			m.emitMarker(kindFork, ep)
		} else {
			m.emitMarker(kindEnterPred, ep)
		}
	}
	m.fetchPC = u.predictedNext
	m.fetchHalted = false
	return taken
}

// lowConfidence consults the confidence estimator (or the oracle for
// perfect confidence) for a fetched conditional branch.
func (m *Machine) lowConfidence(u *uop) bool {
	if m.perfectConf {
		return u.oracleHasStep && u.predictedTaken != u.oracleTaken
	}
	return m.confEst.LowConfidence(u.pc, u.fetchGHR)
}

// maybeEnterDP decides whether the fetched branch starts a dynamic
// predication episode (or a dual-path fork) and sets it up. Returns true
// if an episode began at this branch. The baseline comes here too: it
// predicates no class of region, so it records its evidence and never
// enters.
func (m *Machine) maybeEnterDP(u *uop) bool {
	switch m.cfg.Mode {
	case ModeBaseline, ModeDMP, ModeDHP:
	case ModeDualPath:
		return m.maybeFork(u)
	default:
		return false
	}
	if !u.lowConf {
		return false
	}
	d, lk, met, hybridLoop := m.episodeDiverge(m.prog, u.pc)
	switch lk {
	case mergeHit:
		m.Stats.MergeHits++
	case mergeMiss:
		m.Stats.MergeMisses++
	}
	m.ev.Seen |= hybridLoop
	if met|hybridLoop == 0 {
		return false
	}
	ep := m.liveEp()
	convertible := ep != nil && m.feEp == ep && ep.phase == dpPredicted
	// Evidence: could the other value of a knob decide differently here?
	if ep == nil || convertible {
		m.ev.Seen |= met
	}
	if convertible {
		m.ev.MultipleDiverge = true
	}
	if d == nil {
		return false
	}
	if ep != nil {
		// Section 2.7.3: on the predicted path, give up on the current
		// episode and re-enter for the newer diverge branch. Anywhere
		// else, ignore the newcomer.
		if m.cfg.MultipleDiverge && convertible {
			m.Stats.MDBConversions++
			if m.probe != nil {
				m.probeEpisode(EpMDBConvert, ep)
			}
			m.killEpisodeAssumePredicted(ep)
		} else {
			return false
		}
	}
	m.enterEpisode(u, d, lk == mergeHit)
	return true
}

// liveEp returns the unresolved, un-dead episode if one exists. The
// machine runs at most one episode at a time (the paper's basic processor
// ignores diverge branches during dynamic predication mode; we extend the
// exclusivity until resolution so predicate registers and the oracle
// journal have a single owner).
func (m *Machine) liveEp() *episode { return m.live }

func (m *Machine) enterEpisode(u *uop, d *prog.Diverge, dyn bool) {
	cfms, more := d.CFMs, d.CFMs[1:]
	if !m.cfg.MultipleCFM {
		cfms = cfms[:1]
	}
	m.episodeSeq++
	ep := m.newEpisode()
	*ep = episode{
		id:             m.episodeSeq,
		divergePC:      u.pc,
		divergeSeq:     u.seq,
		divergeMark:    u.oracleMark,
		divergeU:       u.ref,
		divergeGen:     u.gen,
		cfms:           cfms,
		moreCFMs:       more,
		phase:          dpPredicted,
		predictedTaken: u.predictedTaken,
		predID1:        m.preds.alloc(),
		exitThreshold:  exitThreshold(d),
		loop:           d.Loop,
		dynCFM:         dyn,
		rasAtDiverge:   ep.rasAtDiverge,
		rasAtCFM:       ep.rasAtCFM,
		ref:            ep.ref,
	}
	if dyn {
		// d points at the scratch dynDiv: give the episode its
		// own copy of the single learned CFM so the scratch can be reused.
		ep.cfmStore[0] = cfms[0]
		ep.cfms, ep.moreCFMs = ep.cfmStore[:1], nil
		m.Stats.DynCFMEpisodes++
	}
	if u.predictedTaken {
		ep.altStartPC = u.pc + 1
	} else {
		ep.altStartPC = u.inst.Target
	}
	ep.ghr1 = u.fetchGHR.Push(u.predictedTaken)
	m.ras.SnapshotInto(&ep.rasAtDiverge)
	u.isDiverge = true
	u.ep = ep.ref
	m.live = ep
	m.feEp = ep
	m.episodes[ep.id] = ep
	m.Stats.Episodes++
	if m.probe != nil {
		m.probeEpisode(EpEnter, ep)
	}
}

// switchToAlternate ends the predicted path at the CFM point: emit
// enter.alternate.path, jump fetch to the other side of the diverge
// branch with the checkpointed GHR/RAS (Section 2.3).
func (m *Machine) switchToAlternate(ep *episode) {
	ep.cfm = m.fetchPC
	ep.cfmChosen = true
	ep.ghrAtCFM = m.ghr
	m.ras.SnapshotInto(&ep.rasAtCFM)
	m.emitMarker(kindEnterAlt, ep)
	ep.predID2 = m.preds.alloc()
	ep.phase = dpAlternate
	if m.probe != nil {
		m.probeEpisode(EpCFMReached, ep)
	}
	ep.altFetched = 0
	m.fetchPC = ep.altStartPC
	m.ghr = ep.ghr1.SetLast(!ep.predictedTaken)
	m.ras.Restore(ep.rasAtDiverge)
	m.fetchHalted = false
	// If the diverge branch was mispredicted, the alternate path is the
	// correct path: rewind the oracle to the state right after the
	// diverge branch, which is exactly the alternate start. (This covers
	// both the usual case, where the oracle paused there when the wrong
	// predicted path was fetched, and the empty-predicted-path case,
	// where it never diverged at all.)
	if ep.divergeMark.oracleHasStep && ep.divergeMark.oracleTaken != ep.predictedTaken {
		if m.oracle.rewindTo(ep.divergeMark.oracleCount) {
			m.closeWP()
		}
	}
}

// exitPredication ends the alternate path at the CFM point: emit
// exit.pred (which will insert select-uops at rename) and resume normal
// fetch from the CFM point, keeping the alternate path's GHR (Section
// 2.3's design choice).
func (m *Machine) exitPredication(ep *episode) {
	m.emitMarker(kindExitPred, ep)
	ep.phase = dpExited
	if m.probe != nil {
		m.probeEpisode(EpExitPred, ep)
	}
	m.feEp = nil
	m.fetchHalted = false
	if !m.cfg.KeepAlternateGHR {
		// Resume post-CFM fetch with the predicted path's history (see
		// Config.KeepAlternateGHR).
		m.ghr = ep.ghrAtCFM
	}
	// If the diverge branch was correctly predicted, the predicted path
	// was the correct path and the oracle is waiting at the CFM point.
	// (Any later squash of the post-CFM work the oracle then executes is
	// handled by the flush-time rewind in recoverFrom.)
	if ep.divergeMark.onPath && ep.divergeMark.oracleTaken == ep.predictedTaken {
		if m.oracle.resumeAt(m.fetchPC) {
			m.closeWP()
		}
	}
}

// earlyExit abandons the alternate path (Section 2.7.2): restore the
// predicted path's end state, restart fetch from the CFM point, and
// revert the diverge branch to a normal predicted branch by broadcasting
// its predicate TRUE.
func (m *Machine) earlyExit(ep *episode) {
	m.Stats.EarlyExits++
	if ep.dynCFM {
		// The alternate path never reached the learned merge point within
		// the exit threshold: the prediction was (likely) wrong.
		m.Stats.MergeMispredicts++
	}
	if m.probe != nil {
		m.probeEpisode(EpEarlyExit, ep)
	}
	m.killEpisodeAssumePredicted(ep)
	m.fetchPC = ep.cfm
	m.ghr = ep.ghrAtCFM
	m.ras.Restore(ep.rasAtCFM)
	m.fetchHalted = false
	if ep.divergeMark.oracleHasStep && ep.divergeMark.oracleTaken != ep.predictedTaken {
		// The diverge branch is actually mispredicted, so the oracle was
		// following (or waiting at) the alternate path we just abandoned.
		// Park it at the alternate start; the eventual misprediction
		// flush of the diverge branch resumes it there.
		if m.oracle.rewindTo(ep.divergeMark.oracleCount) {
			m.oracle.pause()
			m.openWP()
		}
	} else if ep.divergeMark.onPath {
		// Predicted path was correct: the oracle waits at the CFM point.
		if m.oracle.resumeAt(m.fetchPC) {
			m.closeWP()
		}
	}
}

// killEpisodeAssumePredicted converts an episode to normal branch
// prediction: the predicted path is assumed correct (p1 broadcast TRUE,
// p2 FALSE), alternate-path uops still in the front-end queue are
// dropped, and rename-side state is restored to the predicted path's.
// Used by the early-exit and multiple-diverge-branch enhancements; the
// diverge branch then behaves like a normal branch at resolution.
func (m *Machine) killEpisodeAssumePredicted(ep *episode) {
	ep.converted = true
	m.wakePred(m.preds.broadcast(ep.predID1, true))
	if ep.predID2 != 0 {
		m.wakePred(m.preds.broadcast(ep.predID2, false))
	}
	// Drop not-yet-renamed alternate-path uops and this episode's
	// enter.alt / exit.pred markers.
	if ep.phase == dpAlternate || ep.phase == dpExited {
		m.dropFEQ(ep, (*uop).altPath)
		// If the alternate path already renamed, undo its RAT effects by
		// restoring the checkpoint taken at the end of the predicted path.
		if ep.cp2 != 0 {
			m.rat = *m.ckpts.at(ep.cp2)
		}
	}
	m.teardownEpisode(ep)
}

// teardownEpisode removes the episode from the live slot and the id map.
func (m *Machine) teardownEpisode(ep *episode) {
	ep.phase = dpDead
	if m.live == ep {
		m.live = nil
	}
	if m.feEp == ep {
		m.feEp = nil
	}
	delete(m.episodes, ep.id)
}

// emitMarker pushes a predication marker uop into the front-end queue.
func (m *Machine) emitMarker(kind uopKind, ep *episode) {
	mu := m.arena.alloc(m.nextSeq(), ep.divergePC, kind)
	mu.ep = ep.ref
	m.Stats.FetchedMarkers++
	m.pushUop(mu)
}

// pushUop timestamps a uop for the front-end delay and appends it to the
// fetch queue.
//
//dmp:hotpath
func (m *Machine) pushUop(u *uop) {
	u.renameAt = m.cycle + m.feDelay
	m.feq = pushQueue(m.feqBuf, m.feq, u.ref)
	if m.probe != nil {
		m.probeUop(StageFetch, u)
	}
}

// redirectFetch moves the fetch PC (same-cycle redirect; the taken-branch
// fetch break is modelled by ending the fetch group).
func (m *Machine) redirectFetch(pc uint64) {
	m.fetchPC = pc
	m.fetchHalted = false
}

// noteFetched counts a fetched program instruction, classifying wrong-path
// fetches for Figure 1.
func (m *Machine) noteFetched(u *uop) {
	m.Stats.FetchedInsts++
}
