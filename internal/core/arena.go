package core

import "sync"

// uopArena allocates the machine's uops from chunked slabs instead of one
// heap object per fetched uop, and takes them back once they are
// unreachable, so a run's slab count is set by the instruction window,
// not by the run's length. Slabs come from a process-wide sync.Pool
// shared by all machines: a slab is zeroed when taken (it may carry a
// previous machine's dead uops) and every slab goes back to the pool at
// the end of Run. An experiment sweep that runs hundreds of machines back
// to back therefore recirculates a working set of a few slabs.
//
// A recycled uop goes on a free list with its generation (uop.gen)
// bumped. Holders that may outlive a uop name it by (pointer, gen) — RAT
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
type uopArena struct {
	chunks []*[uopChunkSize]uop // every slab taken from the pool
	next   int                  // next unhanded element of the last slab
	free   []*uop               // recycled uops, already zeroed
	// allocated counts every uop handed out (fresh or recycled), for the
	// throughput accounting in Stats.
	allocated uint64
	released  bool
}

// uopChunkSize is the slab granularity. 64 uops keep a chunk in the
// small-object allocation path (a whole-chunk clear stays cache-friendly)
// while still amortising the per-uop allocation.
const uopChunkSize = 64

// chunkPool shares uop slabs across machines (experiments run many
// machines sequentially; parallel suites each draw their own slabs — the
// pool is concurrency-safe and a slab is owned by exactly one arena
// between Get and release).
var chunkPool = sync.Pool{New: func() any { return new([uopChunkSize]uop) }}

// alloc returns a zeroed uop.
//
//dmp:hotpath
func (a *uopArena) alloc() *uop {
	a.allocated++
	if n := len(a.free); n > 0 {
		u := a.free[n-1]
		a.free = a.free[:n-1]
		return u
	}
	if len(a.chunks) == 0 || a.next == uopChunkSize {
		c := chunkPool.Get().(*[uopChunkSize]uop)
		*c = [uopChunkSize]uop{} // may carry a previous machine's dead uops
		a.chunks = append(a.chunks, c)
		a.next = 0
	}
	u := &a.chunks[len(a.chunks)-1][a.next]
	a.next++
	return u
}

// release returns every slab to the shared pool. Only legal once no uop
// from this arena can ever be dereferenced again — i.e. at the very end
// of Run, after the last pipeline stage has executed. The machine's
// dangling internal references (ROB, RAT, checkpoints) are never read
// after Run returns; a Machine is single-use.
func (a *uopArena) release() {
	if a.released {
		return
	}
	a.released = true
	a.free = nil
	for i, c := range a.chunks {
		chunkPool.Put(c)
		a.chunks[i] = nil
	}
	a.chunks = nil
}

// recycle zeroes a provably unreferenced uop, bumps its generation and
// puts it on the free list. The uop's waiter list must already be empty
// (Machine.recycle frees it).
//
//dmp:hotpath
func (a *uopArena) recycle(u *uop) {
	gen := u.gen + 1
	*u = uop{}
	u.gen = gen
	a.free = append(a.free, u)
}

// recycle returns an unreachable uop's storage to the arena, first
// salvaging its poolable side allocations and freeing its waiter list
// (a squashed producer may still list its squashed consumers).
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
func (m *Machine) addWaiter(p, u *uop, which int) {
	i := m.wfree
	if i != 0 {
		m.wfree = m.wnodes[i].next
		m.wnodes[i] = waiter{u: u, which: int32(which)}
	} else {
		if len(m.wnodes) == 0 {
			m.wnodes = append(m.wnodes, waiter{}) // node 0 ends every list
		}
		i = int32(len(m.wnodes))
		m.wnodes = append(m.wnodes, waiter{u: u, which: int32(which)})
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
		if m.wnodes[i].u.squashed {
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

// salvage returns a uop's side snapshots to their pools: the fetch
// snapshot (every control uop carries one from fetch) and the RAT
// checkpoint (every branch takes one at rename). Both are read only by
// misprediction recovery (recoverFrom) while the branch is in flight and
// only this uop references them, so they are dead once the uop retires
// or is squashed. Returning them keeps snapFetch and snapshotRAT
// allocation-free in steady state, where they otherwise dominate the
// heap.
//
//dmp:hotpath
func (m *Machine) salvage(u *uop) {
	if u.fetchSnap != nil {
		m.snapPool = append(m.snapPool, u.fetchSnap)
		u.fetchSnap = nil
	}
	if u.checkpoint != nil {
		m.ckptPool = append(m.ckptPool, u.checkpoint)
		u.checkpoint = nil
	}
}

// dropRetired hands back a uop that just left the ROB. A producer waits
// in the parked list for reclaimRetired, since rename maps may still name
// it; any other uop is unreachable and recycles at once.
//
//dmp:hotpath
func (m *Machine) dropRetired(u *uop) {
	if u.hasDst {
		m.parked = append(m.parked, u)
		return
	}
	m.arena.recycle(u)
}

// snapshotRAT copies r into a checkpoint from the pool (salvaged from
// retired and squashed branches and reclaimed episodes).
//
//dmp:hotpath
func (m *Machine) snapshotRAT(r *rat) *ratCheckpoint {
	if len(m.ckptPool) == 0 {
		m.ckptPool = growPool(m.ckptPool)
	}
	n := len(m.ckptPool)
	c := m.ckptPool[n-1]
	m.ckptPool = m.ckptPool[:n-1]
	*c = *r
	return c
}

// poolChunk is how many records a side pool (checkpoints, fetch
// snapshots, episodes) gains when it runs dry. Growing in chunks makes a
// new high-water mark, and so an allocation, rare once a run has warmed
// up.
const poolChunk = 32

// growPool adds a chunk of zeroed records to pool.
func growPool[T any](pool []*T) []*T {
	c := make([]T, poolChunk)
	for i := range c {
		pool = append(pool, &c[i])
	}
	return pool
}

// checkpointInto saves r into *c, reusing the checkpoint already there.
//
//dmp:hotpath
func (m *Machine) checkpointInto(c **ratCheckpoint, r *rat) {
	if *c != nil {
		**c = *r
		return
	}
	*c = m.snapshotRAT(r)
}

// dropCheckpoint returns *c to the checkpoint pool and clears it.
//
//dmp:hotpath
func (m *Machine) dropCheckpoint(c **ratCheckpoint) {
	if *c != nil {
		m.ckptPool = append(m.ckptPool, *c)
		*c = nil
	}
}

// newEpisode hands out an episode record from the pool, zeroed except
// for the RAS snapshots' backing arrays. The record joins epLive until
// reclaimRetired finds it unreachable.
//
//dmp:hotpath
func (m *Machine) newEpisode() *episode {
	if len(m.epPool) == 0 {
		m.epPool = growPool(m.epPool)
	}
	n := len(m.epPool)
	ep := m.epPool[n-1]
	m.epPool = m.epPool[:n-1]
	m.epLive = append(m.epLive, ep)
	return ep
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

	pinRAT(&m.rat, pass)
	for _, r := range m.dualRats {
		if r != nil {
			pinRAT(r, pass)
		}
	}
	for i := range m.selPending {
		m.selPending[i].fromCP2.pin(pass)
		m.selPending[i].fromRAT.pin(pass)
	}
	for _, u := range m.rob {
		if u.checkpoint != nil {
			pinRAT(u.checkpoint, pass)
		}
		oldestPred = markUop(u, pass, oldestPred)
	}
	for _, u := range m.feq {
		oldestPred = markUop(u, pass, oldestPred)
	}
	for _, ep := range m.episodes {
		oldestPred = markEpisode(ep, pass, oldestPred)
	}
	oldestPred = markEpisode(m.selEp, pass, oldestPred)
	oldestPred = markEpisode(m.live, pass, oldestPred)
	oldestPred = markEpisode(m.feEp, pass, oldestPred)
	oldestPred = markEpisode(m.dualEp, pass, oldestPred)

	kept := m.parked[:0]
	for _, u := range m.parked {
		if u.pin == pass {
			kept = append(kept, u)
		} else {
			m.arena.recycle(u)
		}
	}
	clear(m.parked[len(kept):])
	m.parked = kept

	keptEp := m.epLive[:0]
	for _, ep := range m.epLive {
		if ep.mark == pass {
			keptEp = append(keptEp, ep)
			continue
		}
		m.dropCheckpoint(&ep.cp1)
		m.dropCheckpoint(&ep.cp2)
		*ep = episode{rasAtDiverge: ep.rasAtDiverge, rasAtCFM: ep.rasAtCFM}
		m.epPool = append(m.epPool, ep)
	}
	clear(m.epLive[len(keptEp):])
	m.epLive = keptEp

	m.preds.release(oldestPred)
}

// markUop marks what an in-flight uop can still read: its episode and
// its predicate ids. It returns oldest lowered to the uop's predicate ids.
func markUop(u *uop, pass uint32, oldest int) int {
	oldest = markEpisode(u.ep, pass, oldest)
	return minPred(minPred(oldest, u.predID), u.selPred)
}

// markEpisode marks a reachable episode record and pins the producers
// its checkpoints name. It returns oldest lowered to the episode's
// predicate ids.
func markEpisode(ep *episode, pass uint32, oldest int) int {
	if ep == nil || ep.mark == pass {
		return oldest
	}
	ep.mark = pass
	if ep.cp1 != nil {
		pinRAT(ep.cp1, pass)
	}
	if ep.cp2 != nil {
		pinRAT(ep.cp2, pass)
	}
	return minPred(minPred(oldest, ep.predID1), ep.predID2)
}

// minPred lowers oldest to id, ignoring id 0 (unpredicated).
func minPred(oldest, id int) int {
	if id != 0 && id < oldest {
		return id
	}
	return oldest
}

// pinRAT marks every producer r names as reachable in this pass.
func pinRAT(r *rat, pass uint32) {
	for i := range r.e {
		r.e[i].pin(pass)
	}
}

// reclaimSquashed removes every remaining reference to the uops a flush
// just squashed, then recycles their storage. The purges are
// behavior-neutral: issue, completion broadcast and predicate wake-up all
// skip squashed entries already, so dropping them (order-preserving)
// changes no simulation outcome — it only makes the "unreferenced" proof
// the free list relies on.
func (m *Machine) reclaimSquashed(dead []*uop) {
	if len(dead) == 0 {
		return
	}
	m.readyQ = dropSquashed(m.readyQ)
	m.replayLoads = dropSquashed(m.replayLoads)
	// Surviving producers may hold waiter entries for squashed consumers
	// (consumers are always younger than their producers, so the reverse
	// cannot happen: a squashed producer's waiters are all squashed too).
	for _, u := range m.rob {
		m.dropSquashedWaiters(u)
	}
	// Surviving episodes' predicates may hold squashed select-uops (a
	// flush can rewind into an episode past its selects). Dead episodes'
	// predicates can never broadcast again, so their waiter lists are
	// never read and need no purge.
	for _, ep := range m.episodes {
		m.preds.dropSquashedWaiters(ep.predID1)
		m.preds.dropSquashedWaiters(ep.predID2)
	}
	for _, u := range dead {
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
func dropSquashed(q []*uop) []*uop {
	kept := q[:0]
	for _, u := range q {
		if !u.squashed {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	return kept
}
