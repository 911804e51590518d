package core

// The store buffer (Machine.sb) holds stores in program order from
// rename until retirement; dynamically predicated stores carry their
// predicate register id and are not released to the memory system until
// the predicate resolves TRUE (Section 2.5).

func (m *Machine) sbFull() bool { return len(m.sb) >= m.cfg.StoreBufferSize }

// sbAlloc appends a renamed store to the store buffer.
//
//dmp:hotpath
func (m *Machine) sbAlloc(u *uop) {
	m.sb = append(m.sb, u.ref)
}

// sbSquash drops store-buffer entries younger than seq (pipeline flush).
func (m *Machine) sbSquash(seq uint64) {
	kept := m.sb[:0]
	for _, r := range m.sb {
		if m.arena.at(r).seq <= seq {
			kept = append(kept, r)
		}
	}
	m.sb = kept
}

// sbRetireHead removes the oldest store-buffer entry, which must be the
// store u (stores retire in program order).
func (m *Machine) sbRetireHead(u *uop) bool {
	if len(m.sb) == 0 || m.sb[0] != u.ref {
		return false
	}
	m.sb = append(m.sb[:0], m.sb[1:]...)
	return true
}

// loadLookup implements the store-to-load forwarding rules of Section
// 2.5. Scanning from the youngest store older than the load:
//
//  1. a non-predicated store (or one whose predicate is known TRUE) with
//     a matching address forwards its value;
//  2. a store whose predicate is known FALSE is transparent;
//  3. a predicated store with an unresolved predicate forwards only to a
//     load with the same predicate id (same dynamically predicated
//     path); a load on a different path must wait;
//  4. a store whose address is not yet computed blocks the load
//     (conservative memory disambiguation).
//
// It returns the value, whether it came from the store buffer, and
// whether the load must stall and retry.
//
//dmp:hotpath
func (m *Machine) loadLookup(ld *uop) (val uint64, fromSB, stall bool) {
	for i := len(m.sb) - 1; i >= 0; i-- {
		su := m.arena.at(m.sb[i])
		if su.squashed || su.seq >= ld.seq {
			continue
		}
		// Dead-path stores are transparent even before their address is
		// known: they will never reach memory.
		if su.predID != 0 && m.preds.known(su.predID) && !m.preds.value(su.predID) {
			continue
		}
		if !su.addrValid {
			if m.probe != nil && !ld.inReplay {
				m.probeMemBlock(ld, su)
			}
			return 0, false, true // rule 4
		}
		if su.addr&^7 != ld.addr&^7 {
			continue
		}
		if su.predID == 0 || (m.preds.known(su.predID) && m.preds.value(su.predID)) {
			return su.dstVal, true, false // rules 1 and 2
		}
		if su.predID == ld.predID {
			return su.dstVal, true, false // rule 3: same predicated path
		}
		if m.probe != nil && !ld.inReplay {
			m.probeMemBlock(ld, su)
		}
		return 0, false, true // rule 3: cross-path, wait for the predicate
	}
	return m.dmem.Read(ld.addr), false, false
}
