package core

import "sync"

// uopArena allocates the machine's uops from chunked slabs instead of one
// heap object per fetched uop, and takes them back once they are
// unreachable, so a run's slab count is set by the instruction window,
// not by the run's length. Slabs come from a process-wide sync.Pool
// shared by all machines, and every slab goes back to the pool at the
// end of Run. An experiment sweep that runs hundreds of machines back to
// back therefore recirculates a working set of a few slabs.
//
// Everything that holds a uop names it by slot (uopRef), never by
// pointer, and a uop holds no pointer either: its episode, fetch
// snapshot and RAT checkpoint are indices into value pools. The slabs,
// the queues, the event heap, the waiter nodes and the rename maps are
// therefore pointer-free, so the collector never scans them and storing
// a uop into one of them needs no write barrier. A *uop is only ever a
// local, short-lived view of a slot.
//
// A recycled uop goes on a free list with its generation (uop.gen)
// bumped. Holders that may outlive a uop name it by (slot, gen) — RAT
// entries and episodes do — so a reused slot reads as stale instead of
// silently aliasing its new occupant. Uops return to the free list from
// four places, each of which proves the uop unreachable:
//
//   - uops dropped from the front-end queue before rename
//     (Machine.recycleFEQ). Pre-rename uops are referenced only by the
//     queue itself — they have no waiters, no RAT entry, no
//     ROB/ready/replay/event slot and no store-buffer entry, all of which
//     are established at rename or later. (An episode copies what it
//     reads of its diverge branch, so the branch is no exception.)
//   - uops squashed by a pipeline flush, after recoverFrom has purged
//     every transient structure that might still name them (ready queue,
//     replay list, surviving producers' waiter lists, live episodes'
//     predicate waiter lists — see reclaimSquashed). A squashed uop whose
//     completion event is still in the heap is recycled lazily when
//     completeStage pops it.
//   - retired uops without a destination (Machine.dropRetired). Only a
//     producer can be named by a rename map; every other reference to a
//     uop ends when it leaves the ROB.
//   - retired producers that no rename map names any more
//     (reclaimRetired). A retired producer's value must stay readable:
//     a saved RAT (a branch checkpoint, CP1/CP2, a dual-path stream RAT)
//     may name it, and a consumer renamed from that RAT reads the value
//     from the uop — even on a predicate-FALSE path, where the value
//     differs from the committed register but still decides a load's
//     address and thus cache timing.
//
// Recycling clears nothing but bumps the generation: alloc writes the
// whole uop, its identity fields set and every other field zeroed, in
// one pass over storage it is about to use.
type uopArena struct {
	// chunks holds every slab taken from the pool, as a slice: indexing
	// a slice bounds-checks against its length in a register, where
	// indexing through an array pointer would first touch the slab's
	// first line to check the pointer for nil. Slabs are page-sized, so
	// their first lines share a few cache sets, and that touch thrashed
	// them.
	chunks [][]uop
	next   int      // next unhanded element of the last slab
	free   []uopRef // recycled slots
	// allocated counts every uop handed out (fresh or recycled), for the
	// throughput accounting in Stats.
	allocated uint64
	released  bool
}

// uopChunkSize is the slab granularity. 64 uops keep a chunk in the
// small-object allocation path while still amortising the per-uop
// allocation.
const uopChunkSize = 64

// chunkPool shares uop slabs across machines (experiments run many
// machines sequentially; parallel suites each draw their own slabs — the
// pool is concurrency-safe and a slab is owned by exactly one arena
// between Get and release).
var chunkPool = sync.Pool{New: func() any { return new([uopChunkSize]uop) }}

// at returns the uop in slot r. r must name a slot (r != 0).
//
//dmp:hotpath
func (a *uopArena) at(r uopRef) *uop {
	i := uint32(r) - 1
	return &a.chunks[i/uopChunkSize][i%uopChunkSize]
}

// alloc returns a uop with the given identity and every other field
// zero; its instruction is therefore a NOP until the caller sets it.
//
//dmp:hotpath
func (a *uopArena) alloc(seq, pc uint64, kind uopKind) *uop {
	a.allocated++
	var u *uop
	if n := len(a.free); n > 0 {
		u = a.at(a.free[n-1])
		a.free = a.free[:n-1]
	} else {
		if len(a.chunks) == 0 || a.next == uopChunkSize {
			a.grow()
		}
		u = &a.chunks[len(a.chunks)-1][a.next]
		a.next++
	}
	ref, gen := u.ref, u.gen
	*u = uop{}
	u.seq, u.pc, u.kind, u.ref, u.gen = seq, pc, kind, ref, gen
	return u
}

// grow takes a slab from the pool and numbers its slots. A slab may
// carry a previous machine's dead uops; alloc overwrites each in full.
func (a *uopArena) grow() {
	c := chunkPool.Get().(*[uopChunkSize]uop)
	base := len(a.chunks) * uopChunkSize
	for i := range c {
		c[i].ref = uopRef(base + i + 1)
	}
	a.chunks = append(a.chunks, c[:])
	a.next = 0
}

// release returns every slab to the shared pool. Only legal once no uop
// from this arena can ever be read again — i.e. at the very end of Run,
// after the last pipeline stage has executed. The machine's dangling
// slot references (ROB, RAT, checkpoints) are never read after Run
// returns; a Machine is single-use.
func (a *uopArena) release() {
	if a.released {
		return
	}
	a.released = true
	a.free = nil
	for i, c := range a.chunks {
		chunkPool.Put((*[uopChunkSize]uop)(c))
		a.chunks[i] = nil
	}
	a.chunks = nil
}

// recycle puts a provably unreferenced uop on the free list with its
// generation bumped, which makes every (slot, gen) handle to it stale.
// The uop's waiter list must already be empty (Machine.recycle frees
// it).
//
//dmp:hotpath
func (a *uopArena) recycle(u *uop) {
	u.gen++
	a.free = append(a.free, u.ref)
}

// bySlot returns the side table t, grown if need be so that slot r
// indexes it.
func bySlot[T any](t []T, r uopRef) []T {
	if int(r) >= len(t) {
		t = append(t, make([]T, int(r)+1-len(t)+uopChunkSize)...)
	}
	return t
}

// recycle returns an unreachable uop's storage to the arena, first
// salvaging its poolable side records and freeing its waiter list (a
// squashed producer may still list its squashed consumers).
//
//dmp:hotpath
func (m *Machine) recycle(u *uop) {
	m.salvage(u)
	m.freeWaiters(u)
	m.arena.recycle(u)
}

// addWaiter appends consumer u's source operand which to producer p's
// waiter list. Nodes come from the machine-wide store, so its size
// follows the window's number of pending operands rather than any one
// producer's history.
//
//dmp:hotpath
func (m *Machine) addWaiter(p, u *uop, which int32) {
	i := m.wfree
	if i != 0 {
		m.wfree = m.wnodes[i].next
		m.wnodes[i] = waiter{u: u.ref, which: which}
	} else {
		if len(m.wnodes) == 0 {
			m.wnodes = append(m.wnodes, waiter{}) // node 0 ends every list
		}
		i = int32(len(m.wnodes))
		m.wnodes = append(m.wnodes, waiter{u: u.ref, which: which})
	}
	if p.wTail != 0 {
		m.wnodes[p.wTail].next = i
	} else {
		p.wHead = i
	}
	p.wTail = i
}

// freeWaiters returns p's whole waiter list to the node store.
//
//dmp:hotpath
func (m *Machine) freeWaiters(p *uop) {
	if p.wHead == 0 {
		return
	}
	m.wnodes[p.wTail].next = m.wfree
	m.wfree = p.wHead
	p.wHead, p.wTail = 0, 0
}

// dropSquashedWaiters unlinks p's squashed consumers from its waiter
// list, keeping the survivors in order.
func (m *Machine) dropSquashedWaiters(p *uop) {
	prev := int32(0)
	for i := p.wHead; i != 0; {
		next := m.wnodes[i].next
		if m.arena.at(m.wnodes[i].u).squashed {
			if prev == 0 {
				p.wHead = next
			} else {
				m.wnodes[prev].next = next
			}
			if p.wTail == i {
				p.wTail = prev
			}
			m.wnodes[i] = waiter{next: m.wfree}
			m.wfree = i
		} else {
			prev = i
		}
		i = next
	}
}

// recycleFEQ returns a uop dropped from the front-end queue to the arena.
// The caller guarantees the uop never renamed; the rename flag is
// re-checked, declining rather than corrupting live state.
//
//dmp:hotpath
func (m *Machine) recycleFEQ(u *uop) {
	if u.renamed {
		return
	}
	m.recycle(u)
}

// salvage returns a uop's side records to their pools: the fetch
// snapshot (every control uop carries one from fetch) and the RAT
// checkpoint (every branch takes one at rename). Both are read only by
// misprediction recovery (recoverFrom) while the branch is in flight and
// only this uop references them, so they are dead once the uop retires
// or is squashed.
//
//dmp:hotpath
func (m *Machine) salvage(u *uop) {
	if u.fetchSnap != 0 {
		m.snaps.put(u.fetchSnap)
		u.fetchSnap = 0
	}
	m.dropCheckpoint(&u.checkpoint)
}

// dropRetired hands back a uop that just left the ROB. A producer waits
// in the parked list for reclaimRetired, since rename maps may still name
// it; any other uop is unreachable and recycles at once.
//
//dmp:hotpath
func (m *Machine) dropRetired(u *uop) {
	if u.hasDst {
		m.parked = append(m.parked, u.ref)
		return
	}
	m.arena.recycle(u)
}

// poolChunk is how many records a side pool (checkpoints, fetch
// snapshots, episodes) gains when it runs dry. Growing in chunks makes a
// new high-water mark, and so an allocation, rare once a run has warmed
// up.
const poolChunk = 32

// pool hands out records of type T by index (0 names none) from chunks
// of values. A chunk never moves once made, so growing the pool leaves
// every record where it was: a *T obtained from at stays valid, and the
// index is what uops and episodes store.
type pool[T any] struct {
	chunks [][]T
	free   []int32 // indices of the records not handed out
}

// at returns record i (i != 0).
//
//dmp:hotpath
func (p *pool[T]) at(i int32) *T {
	j := uint32(i) - 1
	return &p.chunks[j/poolChunk][j%poolChunk]
}

// get hands out a record, as the last holder left it. grew is the new
// chunk when the pool had to grow (its records zero), else nil.
//
//dmp:hotpath
func (p *pool[T]) get() (i int32, grew []T) {
	if len(p.free) == 0 {
		grew = p.grow()
	}
	n := len(p.free)
	i = p.free[n-1]
	p.free = p.free[:n-1]
	return i, grew
}

// grow adds a chunk of zeroed records to the pool and returns it.
func (p *pool[T]) grow() []T {
	c := make([]T, poolChunk)
	base := int32(len(p.chunks) * poolChunk)
	p.chunks = append(p.chunks, c)
	for k := int32(poolChunk); k > 0; k-- {
		p.free = append(p.free, base+k)
	}
	return c
}

// put takes record i back.
//
//dmp:hotpath
func (p *pool[T]) put(i int32) { p.free = append(p.free, i) }

// snapshotRAT copies r into a checkpoint from the pool (salvaged from
// retired and squashed branches and reclaimed episodes) and returns its
// index.
//
//dmp:hotpath
func (m *Machine) snapshotRAT(r *rat) int32 {
	i, _ := m.ckpts.get()
	*m.ckpts.at(i) = *r
	return i
}

// checkpointInto saves r into checkpoint *c, reusing the one already
// there.
//
//dmp:hotpath
func (m *Machine) checkpointInto(c *int32, r *rat) {
	if *c != 0 {
		*m.ckpts.at(*c) = *r
		return
	}
	*c = m.snapshotRAT(r)
}

// dropCheckpoint returns checkpoint *c to the pool and clears *c.
//
//dmp:hotpath
func (m *Machine) dropCheckpoint(c *int32) {
	if *c != 0 {
		m.ckpts.put(*c)
		*c = 0
	}
}

// newEpisode hands out an episode record from the pool, zeroed except
// for its index and the RAS snapshots' backing arrays. The record joins
// epLive until reclaimRetired finds it unreachable.
//
//dmp:hotpath
func (m *Machine) newEpisode() *episode {
	i, _ := m.eps.get()
	ep := m.eps.at(i)
	ep.ref = i
	m.epLive = append(m.epLive, i)
	return ep
}

// epOf returns the episode u belongs to, or nil.
//
//dmp:hotpath
func (m *Machine) epOf(u *uop) *episode {
	if u.ep == 0 {
		return nil
	}
	return m.eps.at(u.ep)
}

// reclaimRetired recycles what nothing in flight can reach any more: the
// parked retired producers no rename map names, the episode records no
// in-flight uop or pipeline register points at (returning their
// checkpoints), and the predicate ids older than any still read. It marks
// from the roots that can be read later — the active and dual-path RATs,
// the pending select-uop sources, the in-flight branches' checkpoints,
// and the reachable episodes' CP1/CP2 — then sweeps. Stale entries (a
// squashed producer's recycled slot) pin nothing.
//
//dmp:hotpath
func (m *Machine) reclaimRetired() {
	m.reclaimPass++
	pass := m.reclaimPass
	oldestPred := m.preds.next

	m.pinRAT(&m.rat, pass)
	for _, r := range m.dualRats {
		if r != nil {
			m.pinRAT(r, pass)
		}
	}
	for i := range m.selPending {
		m.pinEntry(m.selPending[i].fromCP2, pass)
		m.pinEntry(m.selPending[i].fromRAT, pass)
	}
	for _, r := range m.rob {
		u := m.arena.at(r)
		if u.checkpoint != 0 {
			m.pinRAT(m.ckpts.at(u.checkpoint), pass)
		}
		oldestPred = m.markUop(u, pass, oldestPred)
	}
	for _, r := range m.feq {
		oldestPred = m.markUop(m.arena.at(r), pass, oldestPred)
	}
	for _, ep := range m.episodes {
		oldestPred = m.markEpisode(ep, pass, oldestPred)
	}
	oldestPred = m.markEpisode(m.selEp, pass, oldestPred)
	oldestPred = m.markEpisode(m.live, pass, oldestPred)
	oldestPred = m.markEpisode(m.feEp, pass, oldestPred)
	oldestPred = m.markEpisode(m.dualEp, pass, oldestPred)

	kept := m.parked[:0]
	for _, r := range m.parked {
		if u := m.arena.at(r); u.pin == pass {
			kept = append(kept, r)
		} else {
			m.arena.recycle(u)
		}
	}
	m.parked = kept

	keptEp := m.epLive[:0]
	for _, i := range m.epLive {
		ep := m.eps.at(i)
		if ep.mark == pass {
			keptEp = append(keptEp, i)
			continue
		}
		m.dropCheckpoint(&ep.cp1)
		m.dropCheckpoint(&ep.cp2)
		*ep = episode{rasAtDiverge: ep.rasAtDiverge, rasAtCFM: ep.rasAtCFM}
		m.eps.put(i)
	}
	m.epLive = keptEp

	m.preds.release(oldestPred)
}

// markUop marks what an in-flight uop can still read: its episode and
// its predicate ids. It returns oldest lowered to the uop's predicate ids.
func (m *Machine) markUop(u *uop, pass uint32, oldest int32) int32 {
	oldest = m.markEpisode(m.epOf(u), pass, oldest)
	return minPred(minPred(oldest, u.predID), u.selPred)
}

// markEpisode marks a reachable episode record and pins the producers
// its checkpoints name. It returns oldest lowered to the episode's
// predicate ids.
func (m *Machine) markEpisode(ep *episode, pass uint32, oldest int32) int32 {
	if ep == nil || ep.mark == pass {
		return oldest
	}
	ep.mark = pass
	if ep.cp1 != 0 {
		m.pinRAT(m.ckpts.at(ep.cp1), pass)
	}
	if ep.cp2 != 0 {
		m.pinRAT(m.ckpts.at(ep.cp2), pass)
	}
	return minPred(minPred(oldest, ep.predID1), ep.predID2)
}

// minPred lowers oldest to id, ignoring id 0 (unpredicated).
func minPred(oldest, id int32) int32 {
	if id != 0 && id < oldest {
		return id
	}
	return oldest
}

// pinRAT marks every producer r names as reachable in this pass.
func (m *Machine) pinRAT(r *rat, pass uint32) {
	for i := range r.e {
		m.pinEntry(r.e[i], pass)
	}
}

// reclaimSquashed removes every remaining reference to the uops a flush
// just squashed, then recycles their storage. The purges are
// behavior-neutral: issue, completion broadcast and predicate wake-up all
// skip squashed entries already, so dropping them (order-preserving)
// changes no simulation outcome — it only makes the "unreferenced" proof
// the free list relies on.
func (m *Machine) reclaimSquashed(dead []uopRef) {
	if len(dead) == 0 {
		return
	}
	m.readyQ = m.dropSquashed(m.readyQ)
	m.replayLoads = m.dropSquashed(m.replayLoads)
	// Surviving producers may hold waiter entries for squashed consumers
	// (consumers are always younger than their producers, so the reverse
	// cannot happen: a squashed producer's waiters are all squashed too).
	for _, r := range m.rob {
		m.dropSquashedWaiters(m.arena.at(r))
	}
	// Surviving episodes' predicates may hold squashed select-uops (a
	// flush can rewind into an episode past its selects). Dead episodes'
	// predicates can never broadcast again, so their waiter lists are
	// never read and need no purge.
	for _, ep := range m.episodes {
		for _, id := range [2]int32{ep.predID1, ep.predID2} {
			if p := m.preds.get(id); p != nil {
				p.waiters = m.dropSquashed(p.waiters)
			}
		}
	}
	for _, r := range dead {
		u := m.arena.at(r)
		if u.issued && !u.done {
			// Completion event still in the heap; completeStage recycles
			// this uop when the event pops.
			continue
		}
		m.recycle(u)
	}
}

// dropSquashed filters squashed uops out of a queue in place, preserving
// the order of the survivors.
func (m *Machine) dropSquashed(q []uopRef) []uopRef {
	kept := q[:0]
	for _, r := range q {
		if !m.arena.at(r).squashed {
			kept = append(kept, r)
		}
	}
	return kept
}
