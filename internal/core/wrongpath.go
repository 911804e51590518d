package core

// Wrong-path fetch classification (Figure 1). While the oracle is paused
// every fetched PC is wrong-path; once it resumes, the closed episode
// watches the next correct-path fetches, and the first wrong-path
// occurrence of a correct-path PC marks where the wrong path had
// reconverged with the correct path (the control-independent part).

// wpWatch is how many correct-path fetches a closed episode watches.
const wpWatch = 512

// wpClass is the classifier's state: the wrong-path episodes, the PCs
// each fetched, and per code PC when the correct path last fetched it.
//
// Episodes get consecutive ids. At most one is open, the newest; the
// closed ones watch the correct path in the order they closed, so their
// deadlines rise with their ids, and every episode older than the oldest
// live one is finished.
//
// An episode's split is the smallest first-fetch index among its PCs
// that the correct path fetched while it watched. Rather than test every
// watching episode at each correct-path fetch, the classifier stamps the
// fetched PC with the watch clock, one store, and works the split out
// once, when the episode's watch ends: its PCs are recorded in
// first-fetch order, so the split is the first of them stamped after the
// episode closed. The one exception is a split of 0, which cannot drop
// further and finishes the episode at once: per PC, the episodes whose
// first wrong-path fetch was that PC form a chain, which the PC's next
// correct-path fetch finishes.
//
// PCs are dense code-image indices, so the per-PC state is an array. The
// recorded PCs (nodes) are numbered in recording order, which is episode
// order, and live in a ring indexed by number: every node below the
// oldest live episode's first node is dead, so the ring never needs
// compacting. A wrong-path fetch dedups with one probe too: the open
// episode owns every node from its first on, so it has recorded a PC
// exactly when the PC's newest node reaches that far.
type wpClass struct {
	pcs      []wpPC      // by code PC
	nodes    []wpNode    // power-of-two ring: node k is nodes[k&(len-1)]
	next     uint64      // number of the next node
	liveBase uint64      // first node of the oldest live episode
	eps      []wpEpisode // power-of-two ring: episode id's record is eps[id&(len-1)]
	oldest   uint32      // oldest id that may still be live
	nextID   uint32      // id of the next episode
	open     uint32      // id of the open episode (0 = none)
	watching int         // number of watching episodes
	fed      uint64      // correct-path fetches fed while any episode watched: the watch clock
}

// wpPC is the classifier's state for one code PC.
type wpPC struct {
	last  uint64 // number+1 of the newest node recorded for the PC (0 = none)
	fed   uint64 // watch clock at the PC's latest correct-path fetch (0 = none)
	first uint32 // newest episode whose first wrong-path fetch was the PC (0 = none)
}

// wpNode records that an episode first fetched pc at index first.
type wpNode struct {
	pc    uint32
	first uint32
}

// wpEpisode is one wrong-path fetch episode. Its nodes are base..end-1.
type wpEpisode struct {
	id        uint32
	prevFirst uint32 // next older episode in its first PC's chain (0 = none)
	state     wpState
	n         int    // wrong-path PCs fetched
	base      uint64 // number of the episode's first node
	end       uint64 // one past its last node, set at close
	closed    uint64 // watch clock when it closed
	deadline  uint64 // watch clock value at which watching ends
}

type wpState uint8

const (
	wpDead wpState = iota
	wpOpen
	wpWatching
)

// init sizes the classifier for a code image of n instructions.
func (w *wpClass) init(n int) {
	w.pcs = make([]wpPC, n)
	w.nodes = make([]wpNode, 256)
	w.eps = make([]wpEpisode, 16)
	w.oldest, w.nextID = 1, 1
}

// rec returns episode id's record. id must be live.
func (w *wpClass) rec(id uint32) *wpEpisode { return &w.eps[id&uint32(len(w.eps)-1)] }

// begin opens a new episode.
func (w *wpClass) begin() {
	for w.oldest != w.nextID && w.rec(w.oldest).state == wpDead {
		w.oldest++
	}
	id := w.nextID
	if int(id-w.oldest) >= len(w.eps) {
		w.growEps()
	}
	w.nextID++
	w.open = id
	*w.rec(id) = wpEpisode{id: id, state: wpOpen, base: w.next}
	if w.oldest == id {
		w.liveBase = w.next
	}
}

// growEps doubles the episode ring, keeping the records of ids
// oldest..nextID-1.
func (w *wpClass) growEps() {
	old := w.eps
	w.eps = make([]wpEpisode, 2*len(old))
	for id := w.oldest; id != w.nextID; id++ {
		*w.rec(id) = old[id&uint32(len(old)-1)]
	}
}

// record adds the open episode e's first fetch of pc, at index e.n,
// unless e already fetched pc.
//
//dmp:hotpath
func (w *wpClass) record(e *wpEpisode, pc uint64) {
	if pc >= uint64(len(w.pcs)) {
		// Outside the code image: never a correct-path PC.
		return
	}
	p := &w.pcs[pc]
	if p.last > e.base {
		return // e recorded pc already
	}
	if w.next-w.liveBase >= uint64(len(w.nodes)) {
		w.growNodes()
	}
	w.nodes[w.next&uint64(len(w.nodes)-1)] = wpNode{pc: uint32(pc), first: uint32(e.n)}
	w.next++
	p.last = w.next
	if e.n == 0 {
		e.prevFirst, p.first = p.first, e.id
	}
}

// growNodes doubles the node ring, keeping the live nodes.
func (w *wpClass) growNodes() {
	old := w.nodes
	w.nodes = make([]wpNode, 2*len(old))
	for k := w.liveBase; k < w.next; k++ {
		w.nodes[k&uint64(len(w.nodes)-1)] = old[k&uint64(len(old)-1)]
	}
}

// split returns where control independence starts in the watching
// episode e: the first-fetch index of its first PC the correct path
// fetched since e closed, or -1.
func (w *wpClass) split(e *wpEpisode) int {
	for k := e.base; k < e.end; k++ {
		n := w.nodes[k&uint64(len(w.nodes)-1)]
		if w.pcs[n.pc].fed > e.closed {
			return int(n.first)
		}
	}
	return -1
}

// openWP starts a wrong-path fetch episode when the oracle pauses.
func (m *Machine) openWP() {
	if m.wp.open != 0 {
		return
	}
	m.Stats.OraclePauses++
	if m.probe != nil {
		m.probeOracle(false)
	}
	if m.wp.pcs == nil {
		m.wp.init(len(m.prog.Code))
	}
	m.wp.begin()
}

// recordWrongFetch logs a wrong-path fetched PC into the open episode.
//
//dmp:hotpath
func (m *Machine) recordWrongFetch(pc uint64) {
	m.wrongFetches++
	if m.wp.open == 0 {
		// Paused before this machine opened an episode (e.g. dual-path
		// non-oracle stream): open one now.
		m.openWP()
	}
	e := m.wp.rec(m.wp.open)
	m.wp.record(e, pc)
	e.n++
}

// closeWP ends the open wrong-path episode (the oracle resumed); the
// episode then watches the next correct-path fetches to find where the
// wrong path had reconverged with the correct path.
func (m *Machine) closeWP() {
	w := &m.wp
	if w.open == 0 {
		return
	}
	m.Stats.OracleResumes++
	if m.probe != nil {
		m.probeOracle(true)
	}
	e := w.rec(w.open)
	w.open = 0
	if e.n == 0 {
		e.state = wpDead
		return
	}
	e.state = wpWatching
	e.end = w.next
	e.closed = w.fed
	e.deadline = w.fed + wpWatch
	w.watching++
}

// feedWPWatchers gives a correct-path fetched PC to the watching
// episodes: the first wrong-path occurrence of a correct-path PC marks
// the start of the control-independent portion of that wrong path. It
// only stamps pc with the watch clock (split reads the stamps) and
// finishes the episodes whose watch has ended.
//
//dmp:hotpath
func (m *Machine) feedWPWatchers(pc uint64) {
	w := &m.wp
	if w.watching == 0 {
		return
	}
	w.fed++
	if pc < uint64(len(w.pcs)) {
		p := &w.pcs[pc]
		p.fed = w.fed
		if p.first != 0 {
			m.finishFirstAt(p)
		}
	}
	if w.rec(w.oldest).deadline > w.fed {
		return
	}
	// Finish the episodes whose watch has ended; they are the oldest.
	for w.oldest != w.nextID {
		e := w.rec(w.oldest)
		if e.state == wpWatching && e.deadline <= w.fed {
			m.finishWP(e, w.split(e))
			e.state = wpDead
			w.watching--
		} else if e.state != wpDead {
			break
		}
		w.oldest++
	}
	if w.oldest != w.nextID {
		w.liveBase = w.rec(w.oldest).base
	} else {
		w.liveBase = w.next
	}
}

// finishFirstAt finishes, with a split of 0, the watching episodes whose
// first wrong-path fetch was the PC whose state is p, which the correct
// path just fetched. Only the open episode, the newest, stays in the
// PC's chain: every other episode in it is now finished.
func (m *Machine) finishFirstAt(p *wpPC) {
	w := &m.wp
	id := p.first
	p.first = 0
	if id == w.open {
		e := w.rec(id)
		p.first, id, e.prevFirst = id, e.prevFirst, 0
	}
	for id != 0 && id >= w.oldest {
		e := w.rec(id)
		if e.state == wpWatching {
			m.finishWP(e, 0)
			e.state = wpDead
			w.watching--
		}
		id = e.prevFirst
	}
}

// finishWP accounts a finished wrong-path episode with the given split
// into Figure-1 counters.
func (m *Machine) finishWP(e *wpEpisode, split int) {
	if split < 0 {
		m.Stats.FetchedWrongCD += uint64(e.n)
		return
	}
	m.Stats.FetchedWrongCD += uint64(split)
	m.Stats.FetchedWrongCI += uint64(e.n - split)
}

// flushWPAll finalizes all outstanding wrong-path episodes (end of run).
func (m *Machine) flushWPAll() {
	w := &m.wp
	if w.open != 0 {
		e := w.rec(w.open)
		w.open = 0
		if e.n > 0 {
			m.finishWP(e, -1)
		}
		e.state = wpDead
	}
	for id := w.oldest; id != w.nextID; id++ {
		if e := w.rec(id); e.state == wpWatching {
			m.finishWP(e, w.split(e))
			e.state = wpDead
		}
	}
	w.watching = 0
	w.oldest = w.nextID
	w.liveBase = w.next
}
