package core

// Selective dual-path execution (Heil & Smith; Farrens et al.), the
// comparison point of Section 5.3: on a low-confidence conditional
// branch, fetch *both* paths, sharing fetch bandwidth cycle by cycle,
// with no merging at control-independent points. When the branch
// resolves, the losing path's instructions are squashed through the same
// predicate mechanism dynamic predication uses, and fetch continues only
// on the winning path.
//
// Recovery simplification: a misprediction of a branch *inside* an active
// fork aborts the fork conservatively (the machine reverts to the
// predicted path before recovering). Real proposals pay complex hardware
// to do better; the conservative abort slightly understates dual-path,
// which the paper already finds weakest of the three schemes.

// maybeFork starts dual-path execution at a low-confidence branch.
func (m *Machine) maybeFork(u *uop) bool {
	if !u.lowConf || m.dualEp != nil {
		return false
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
		phase:          dpPredicted,
		predictedTaken: u.predictedTaken,
		predID1:        m.preds.alloc(),
		predID2:        m.preds.alloc(),
		dual:           true,
		rasAtDiverge:   ep.rasAtDiverge,
		rasAtCFM:       ep.rasAtCFM,
		ref:            ep.ref,
	}
	if u.predictedTaken {
		ep.altStartPC = u.pc + 1
	} else {
		ep.altStartPC = u.inst.Target
	}
	u.isDiverge = true
	u.ep = ep.ref
	u.predID = 0
	m.dualEp = ep
	m.episodes[ep.id] = ep
	m.Stats.Episodes++
	if m.probe != nil {
		m.probeEpisode(EpEnter, ep)
	}

	// The forked (alternate) stream starts at the other target with the
	// other history bit and a copy of the RAS.
	m.streams[1] = streamCtx{
		active: true,
		pc:     ep.altStartPC,
		ghr:    u.fetchGHR.Push(!u.predictedTaken),
		ras:    m.streams[1].ras,
	}
	m.ras.SnapshotInto(&m.streams[1].ras)
	m.dualActive = true
	m.fetchStream = 0
	m.oracleStream = 0
	if u.oracleHasStep && u.oracleTaken != u.predictedTaken {
		// The forked stream is the correct path: put the oracle at its
		// first instruction (the state right after the fork branch).
		if m.oracle.rewindTo(u.oracleCount) {
			m.closeWP()
			m.oracleStream = 1
		}
	}
	return true
}

// fetchDualStage fetches one group per cycle, alternating between the
// two streams (each gets half the front-end bandwidth, as in selective
// dual-path proposals).
func (m *Machine) fetchDualStage() {
	if len(m.feq) >= m.feqCap {
		return
	}
	// Pick the stream for this cycle: alternate, skipping a halted one.
	s := int(m.cycle) & 1
	if m.streamHalted(s) {
		s ^= 1
		if m.streamHalted(s) {
			return
		}
	}
	m.swapInStream(s)
	defer m.swapOutStream(s)

	if lat := m.hier.InstLatency(m.fetchPC * 8); lat > 2 {
		m.fetchStallUntil = m.cycle + uint64(lat)
		m.Stats.L1IMisses++
		return
	}
	slots, brs := m.cfg.FetchWidth, 0
	for slots > 0 && len(m.feq) < m.feqCap && !m.fetchHalted {
		redirected, isCond := m.fetchOne()
		slots--
		if isCond {
			brs++
		}
		if redirected || brs >= m.cfg.MaxBrPerFetch {
			break
		}
	}
}

func (m *Machine) streamHalted(s int) bool {
	if s == 0 {
		return m.fetchHalted // stream 0 state lives in the globals
	}
	return !m.streams[1].active || m.streams[1].halted
}

// swapInStream loads a stream's fetch context into the machine's global
// fetch registers. Stream 0 *is* the global context; stream 1 is stored
// in streams[1].
func (m *Machine) swapInStream(s int) {
	m.fetchStream = s
	if s == 0 {
		return
	}
	m.streams[0] = streamCtx{pc: m.fetchPC, ghr: m.ghr, ras: m.streams[0].ras, halted: m.fetchHalted}
	m.ras.SnapshotInto(&m.streams[0].ras)
	c := m.streams[1]
	m.fetchPC, m.ghr, m.fetchHalted = c.pc, c.ghr, c.halted
	m.ras.Restore(c.ras)
}

func (m *Machine) swapOutStream(s int) {
	if s == 0 {
		m.fetchStream = 0
		return
	}
	m.streams[1].pc, m.streams[1].ghr, m.streams[1].halted = m.fetchPC, m.ghr, m.fetchHalted
	m.ras.SnapshotInto(&m.streams[1].ras)
	c := m.streams[0]
	m.fetchPC, m.ghr, m.fetchHalted = c.pc, c.ghr, c.halted
	m.ras.Restore(c.ras)
	m.fetchStream = 0
}

// resolveFork ends dual-path mode when the forked branch resolves: the
// losing stream is squashed via its FALSE predicate and fetch continues
// on the winner. A misprediction costs no flush — that is dual-path's
// benefit.
func (m *Machine) resolveFork(u *uop, ep *episode) {
	winner := 0
	if u.mispredicted {
		winner = 1
	}
	m.wakePred(m.preds.broadcast(ep.predID1, winner == 0))
	m.wakePred(m.preds.broadcast(ep.predID2, winner == 1))

	// Drop the loser's not-yet-renamed uops.
	m.dropFEQ(ep, func(q *uop) bool { return int(q.stream) != winner })

	// The winner's RAT becomes the active RAT.
	if m.dualRats[winner] != nil {
		m.rat = *m.dualRats[winner]
	}
	m.dualRats[0], m.dualRats[1] = nil, nil

	// Fetch continues on the winner's context.
	if winner == 1 {
		c := m.streams[1]
		m.fetchPC, m.ghr, m.fetchHalted = c.pc, c.ghr, c.halted
		m.ras.Restore(c.ras)
	}
	m.streams[1] = streamCtx{ras: m.streams[1].ras}
	m.dualActive = false
	m.fetchStream = 0
	m.oracleStream = 0
	m.dualEp = nil
	if u.mispredicted {
		m.setExit(ep, Exit2) // a misprediction absorbed without a flush
	} else {
		m.setExit(ep, Exit1) // pure dual-fetch overhead
	}
	m.teardownEpisode(ep)
}

// conservativeDualAbort handles a mispredicted branch inside an active
// fork: revert to the predicted stream (p1 TRUE, p2 FALSE), then recover
// normally if the mispredicted branch survives on that stream.
func (m *Machine) conservativeDualAbort(u *uop, ep *episode) {
	m.wakePred(m.preds.broadcast(ep.predID1, true))
	m.wakePred(m.preds.broadcast(ep.predID2, false))
	ep.converted = true
	if m.probe != nil {
		m.probeEpisode(EpDualAbort, ep)
	}

	m.dropFEQ(ep, func(q *uop) bool { return q.stream == 1 })

	if m.dualRats[0] != nil {
		m.rat = *m.dualRats[0]
	}
	m.dualRats[0], m.dualRats[1] = nil, nil
	m.streams[1] = streamCtx{ras: m.streams[1].ras}
	m.dualActive = false
	m.fetchStream = 0
	if m.oracleStream == 1 && ep.divergeMark.oracleHasStep {
		// The oracle followed the (correct) forked stream we just
		// killed: park it at the fork point; the fork branch's eventual
		// misprediction flush resumes it.
		if m.oracle.rewindTo(ep.divergeMark.oracleCount) {
			m.oracle.pause()
			m.openWP()
		}
	}
	m.oracleStream = 0
	m.dualEp = nil
	m.teardownEpisode(ep)

	if u.stream == 0 {
		m.recoverFrom(u)
	}
	// A stream-1 mispredict needs no recovery: that path is now dead.
}

// collapseDualOnFlush resets dual-path machinery after a flush killed the
// fork branch itself.
func (m *Machine) collapseDualOnFlush(b *uop) {
	if m.dualEp == nil || m.dualEp.phase != dpDead {
		return
	}
	m.dualEp = nil
	m.dualActive = false
	m.dualRats[0], m.dualRats[1] = nil, nil
	m.streams[1] = streamCtx{ras: m.streams[1].ras}
	m.fetchStream = 0
	m.oracleStream = 0
}
