package core

// Wrong-path fetch classification (Figure 1). While the oracle is paused
// every fetched PC is wrong-path; once it resumes, the closed episode
// watches the next correct-path fetches, and the first wrong-path
// occurrence of a correct-path PC marks where the wrong path had
// reconverged with the correct path (the control-independent part).

// wpEpisode tracks one wrong-path fetch episode. The index of each PC's
// first fetch lives in Machine.wpIdx under the episode's id, so a record
// is a few words, stored by value.
type wpEpisode struct {
	id        int
	n         int // wrong-path PCs fetched
	watchLeft int
	split     int // index where control-independence starts (-1 unknown)
}

// openWP starts a wrong-path fetch episode when the oracle pauses.
func (m *Machine) openWP() {
	if m.wpOpen != nil {
		return
	}
	m.Stats.OraclePauses++
	if m.probe != nil {
		m.probeOracle(false)
	}
	m.wpNextID++
	m.wpOpenRec = wpEpisode{id: m.wpNextID, split: -1}
	m.wpOpen = &m.wpOpenRec
}

// recordWrongFetch logs a wrong-path fetched PC into the open episode.
//
//dmp:hotpath
func (m *Machine) recordWrongFetch(pc uint64) {
	if m.wpOpen == nil {
		// Paused before this machine opened an episode (e.g. dual-path
		// non-oracle stream): open one now.
		m.openWP()
	}
	e := m.wpOpen
	x := &m.wpIdx
	if 2*(x.used+1) > len(x.slots) {
		m.compactWPIndex()
	}
	if i := x.find(e.id, pc); x.slots[i].id == 0 {
		x.slots[i] = wpSlot{id: e.id, pc: pc, first: e.n}
		x.used++
	}
	e.n++
}

// closeWP ends the open wrong-path episode (the oracle resumed); the
// episode then watches the next correct-path fetches to find where the
// wrong path had reconverged with the correct path.
func (m *Machine) closeWP() {
	if m.wpOpen == nil {
		return
	}
	m.Stats.OracleResumes++
	if m.probe != nil {
		m.probeOracle(true)
	}
	e := *m.wpOpen
	m.wpOpen = nil
	if e.n == 0 {
		return
	}
	e.watchLeft = 512
	m.wpWatching = append(m.wpWatching, e)
}

// feedWPWatchers gives a correct-path fetched PC to all watching
// episodes: the first wrong-path occurrence of a correct-path PC marks
// the start of the control-independent portion of that wrong path.
//
//dmp:hotpath
func (m *Machine) feedWPWatchers(pc uint64) {
	if len(m.wpWatching) == 0 {
		return
	}
	kept := m.wpWatching[:0]
	for _, e := range m.wpWatching {
		if s := m.wpIdx.slots[m.wpIdx.find(e.id, pc)]; s.id != 0 && (e.split == -1 || s.first < e.split) {
			e.split = s.first
		}
		e.watchLeft--
		if e.watchLeft <= 0 || e.split == 0 {
			m.finishWP(e)
			continue
		}
		kept = append(kept, e)
	}
	m.wpWatching = kept
}

// finishWP accounts a finished wrong-path episode into Figure-1 counters.
func (m *Machine) finishWP(e wpEpisode) {
	if e.split < 0 {
		m.Stats.FetchedWrongCD += uint64(e.n)
		return
	}
	m.Stats.FetchedWrongCD += uint64(e.split)
	m.Stats.FetchedWrongCI += uint64(e.n - e.split)
}

// flushWPAll finalizes all outstanding wrong-path episodes (end of run).
func (m *Machine) flushWPAll() {
	if m.wpOpen != nil {
		e := *m.wpOpen
		m.wpOpen = nil
		if e.n > 0 {
			m.finishWP(e)
		}
	}
	for _, e := range m.wpWatching {
		m.finishWP(e)
	}
	m.wpWatching = nil
}

// wpIndex maps (wrong-path episode id, pc) to the index of the PC's first
// fetch in that episode: an open-addressing table (linear probing) shared
// by every open and watching episode. Finished episodes' entries are
// dropped in bulk when the table fills (compactWPIndex), so it grows only
// with the number of PCs live episodes hold, and allocates only when that
// reaches a new high.
type wpIndex struct {
	slots []wpSlot // power-of-two length; id 0 marks an empty slot
	spare []wpSlot // cleared table of the same length, the next compaction's target
	used  int
}

type wpSlot struct {
	id    int
	pc    uint64
	first int
}

// find returns the slot holding (id, pc), or the empty slot where it
// belongs. The table must be allocated and not full.
func (x *wpIndex) find(id int, pc uint64) int {
	mask := uint64(len(x.slots) - 1)
	h := (pc*0x9E3779B97F4A7C15 ^ uint64(id)) * 0xBF58476D1CE4E5B9
	for i := (h >> 32) & mask; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.id == 0 || (s.id == id && s.pc == pc) {
			return int(i)
		}
	}
}

// compactWPIndex rebuilds the index keeping only the live episodes'
// entries, doubling it when they fill more than a quarter of it.
func (m *Machine) compactWPIndex() {
	live := m.wpNextID + 1
	if m.wpOpen != nil {
		live = m.wpOpen.id
	}
	for _, e := range m.wpWatching {
		live = min(live, e.id)
	}
	x := &m.wpIdx
	old := x.slots
	kept := 0
	for _, s := range old {
		if s.id >= live {
			kept++
		}
	}
	n := max(len(old), 256)
	for 4*(kept+1) > n {
		n *= 2
	}
	x.slots = x.spare
	if len(x.slots) != n {
		x.slots = make([]wpSlot, n)
	}
	x.used = 0
	for _, s := range old {
		if s.id >= live {
			x.slots[x.find(s.id, s.pc)] = s
			x.used++
		}
	}
	clear(old)
	x.spare = nil
	if len(old) == n {
		x.spare = old
	}
}
