package core

import (
	"dmp/internal/bpred"
)

// dpPhase tracks where the fetch engine is within a dynamic predication
// episode.
type dpPhase uint8

const (
	dpPredicted dpPhase = iota // fetching the predicted path (Section 2.3)
	dpAlternate                // fetching the alternate path
	dpExited                   // exit.pred emitted; waiting for resolution
	dpDead                     // torn down (flush, conversion, resolution)
)

// ExitCase is a Table-1 exit case of dynamic predication mode.
type ExitCase int

// Exit cases 1-6 of Table 1.
const (
	ExitNone ExitCase = iota
	// Exit1: both paths reached the CFM point, branch correctly
	// predicted: pure alternate-path overhead.
	Exit1
	// Exit2: both paths reached the CFM point, branch mispredicted: a
	// pipeline flush was eliminated.
	Exit2
	// Exit3: predicted path reached the CFM, branch resolved correct
	// while fetching the alternate path: fetch is redirected to the CFM.
	Exit3
	// Exit4: branch resolved mispredicted while fetching the (correct)
	// alternate path: no special action, penalty reduced.
	Exit4
	// Exit5: branch resolved correct while still on the predicted path.
	Exit5
	// Exit6: branch resolved mispredicted while still on the predicted
	// path: the pipeline is flushed as in the baseline.
	Exit6
)

// String names the exit case the way Stats.ExitCases indexes it:
// "squashed" for index 0 (episode killed by a flush), "case1".."case6"
// for the Table-1 cases.
func (c ExitCase) String() string {
	switch c {
	case ExitNone:
		return "squashed"
	case Exit1:
		return "case1"
	case Exit2:
		return "case2"
	case Exit3:
		return "case3"
	case Exit4:
		return "case4"
	case Exit5:
		return "case5"
	case Exit6:
		return "case6"
	}
	return "case?"
}

// episode is one dynamic predication episode: a low-confidence diverge
// branch being dynamically predicated (or a dual-path fork). It carries
// both fetch-side state (phase, CFM watch, alternate counters) and
// rename-side state (the CP1/CP2 checkpoints). Records come from the
// machine's episode pool (newEpisode) and go back to it once nothing in
// flight can reach them (reclaimRetired).
type episode struct {
	id int

	// The diverge branch. Its pc, seq and oracle mark are copied at entry:
	// the branch retires, and its uop slot is reused, while the episode's
	// select-uops and markers may still need them. divergeU names the uop
	// itself, valid only while divergeGen matches (divergeInFlight).
	divergePC, divergeSeq uint64
	divergeMark           oracleMark
	divergeU              uopRef
	divergeGen            uint32

	cfms      []uint64 // candidate CFM points (CAM contents)
	moreCFMs  []uint64 // the region's CFM points after the first, whatever cfms holds (Evidence.MultipleCFM)
	cfm       uint64   // CFM chosen by the predicted path (valid once chosen)
	cfmChosen bool
	phase     dpPhase

	predictedTaken bool
	altStartPC     uint64    // first PC of the alternate path
	ghr1           bpred.GHR // checkpointed GHR with the diverge bit (Section 2.3)
	ghrAtCFM       bpred.GHR // fetch GHR when the predicted path reached the CFM
	rasAtDiverge   bpred.RASState
	rasAtCFM       bpred.RASState

	// predID1 predicates the predicted path, predID2 the alternate path.
	predID1, predID2 int32

	// Rename-side checkpoints (Section 2.4), indices into Machine.ckpts
	// (0 = none). cp1 is taken when enter.pred.path renames, cp2 when
	// enter.alternate.path renames.
	cp1, cp2 int32

	altFetched    int // alternate-path instructions fetched (early exit)
	exitThreshold int

	exitCase  ExitCase
	converted bool // reverted to a normal branch (early exit or MDB)
	loop      bool

	// dynCFM marks an episode whose CFM came from the runtime merge-point
	// predictor (internal/merge) rather than a compiler annotation;
	// cfmStore then backs the one-element cfms slice so the episode owns
	// its CFM (the predictor's scratch annotation is reused per lookup).
	dynCFM   bool
	cfmStore [1]uint64

	// dual-path only: per-stream fetch contexts live in the frontend.
	dual bool

	mark uint32 // the reclaimRetired pass that last found this record reachable
	ref  int32  // this record's index in Machine.eps, what uops store
}

// divergeInFlight reports whether the episode's diverge branch is still
// in the window, unresolved: its uop slot has not been recycled since
// entry, and the uop has neither resolved nor been squashed.
func (m *Machine) divergeInFlight(ep *episode) bool {
	u := m.arena.at(ep.divergeU)
	return u.gen == ep.divergeGen && !u.resolved && !u.squashed
}

// predicate is one predicate register (Section 2.4): defined by the
// enter uops, produced when the diverge branch resolves, consumed by
// select-uops, the store buffer and retirement.
type predicate struct {
	known   bool
	value   bool
	waiters []uopRef // select-uops woken on broadcast
}

// predFile is the predicate register file. IDs are allocated
// monotonically (id 0 means "not predicated") into a ring of records:
// the ids base..next-1 are live, and release moves base past the ids
// nothing in flight can read any more (reclaimRetired decides which), so
// the ring stays as small as the window's predicate working set.
type predFile struct {
	ring       []predicate // id's record is ring[id&(len(ring)-1)]
	base, next int32
}

func newPredFile() *predFile {
	return &predFile{ring: make([]predicate, 16), base: 1, next: 1}
}

// alloc returns a fresh predicate id. A reused record keeps its waiter
// list's backing array.
//
//dmp:hotpath
func (f *predFile) alloc() int32 {
	if int(f.next-f.base) == len(f.ring) {
		f.grow()
	}
	id := f.next
	f.next++
	p := &f.ring[int(id)&(len(f.ring)-1)]
	*p = predicate{waiters: p.waiters[:0]}
	return id
}

// grow doubles the ring, moving every live record to its new slot.
func (f *predFile) grow() {
	old := f.ring
	f.ring = make([]predicate, 2*len(old))
	for id := f.base; id < f.next; id++ {
		f.ring[int(id)&(len(f.ring)-1)] = old[int(id)&(len(old)-1)]
	}
}

// release frees every id below live, the oldest id anything in flight
// can still read.
func (f *predFile) release(live int32) {
	if live > f.base {
		f.base = live
	}
}

// get returns the predicate record for id: nil for id 0 and for ids
// outside the live range (never allocated, or released).
func (f *predFile) get(id int32) *predicate {
	if id < f.base || id >= f.next {
		return nil
	}
	return &f.ring[int(id)&(len(f.ring)-1)]
}

// known reports whether the predicate value has been broadcast. id 0
// (unpredicated) is always known-true.
func (f *predFile) known(id int32) bool {
	if id == 0 {
		return true
	}
	p := f.get(id)
	return p != nil && p.known
}

// value returns the broadcast value; id 0 is true.
func (f *predFile) value(id int32) bool {
	if id == 0 {
		return true
	}
	p := f.get(id)
	return p != nil && p.known && p.value
}

// broadcast produces a predicate value and returns the uops waiting on
// it. Broadcasting an already-known predicate to the same value is a
// no-op; to a different value it panics (that would be a protocol bug).
//
// The returned slice aliases the record's waiter list, which keeps its
// backing array for the next awaits: the caller must consume it before
// the predicate file is next written (wakePred does).
func (f *predFile) broadcast(id int32, val bool) []uopRef {
	p := f.get(id)
	if p == nil {
		return nil
	}
	if p.known {
		if p.value != val {
			panic("core: predicate re-broadcast with different value")
		}
		return nil
	}
	p.known = true
	p.value = val
	w := p.waiters
	p.waiters = w[:0]
	return w
}

// await registers a uop to be woken when the predicate broadcasts. It
// reports whether the value is already known (in which case the caller
// should not wait).
func (f *predFile) await(id int32, u uopRef) bool {
	p := f.get(id)
	if p == nil || p.known {
		return true
	}
	p.waiters = append(p.waiters, u)
	return false
}
