package core

import (
	"dmp/internal/bpred"
	"dmp/internal/isa"
)

// uopKind distinguishes program instructions from the uops the front end
// inserts to support dynamic predication (Section 2.4).
type uopKind uint8

const (
	kindInst uopKind = iota
	kindEnterPred
	kindEnterAlt
	kindExitPred
	kindSelect
	kindFork // dual-path fork marker
)

func (k uopKind) String() string {
	switch k {
	case kindInst:
		return "inst"
	case kindEnterPred:
		return "enter.pred.path"
	case kindEnterAlt:
		return "enter.alternate.path"
	case kindExitPred:
		return "exit.pred"
	case kindSelect:
		return "select-uop"
	case kindFork:
		return "fork"
	}
	return "uop?"
}

// operand is one renamed source of a uop. Either it is ready with a
// value, or it names the sequence number of the producing uop, which will
// broadcast the value at completion.
type operand struct {
	ready    bool
	val      uint64
	producer uint64 // producer seq, valid when !ready
}

// uop is one entry of the machine's instruction window: a fetched
// instruction or inserted predication uop, carried from fetch to
// retirement.
type uop struct {
	seq  uint64 // global age; also the rename tag of the destination
	pc   uint64
	inst isa.Inst
	kind uopKind

	// Renamed sources. src3 is used only by select-uops (the second data
	// input; src1/src2 convention: src1 = predicated-path value, src2 is
	// unused, src3 = alternate-path value... see rename.go).
	src1, src2, src3 operand
	numSrc           int

	// Destination.
	hasDst  bool
	dstArch isa.Reg
	dstVal  uint64

	// Scheduling state.
	renameAt uint64 // earliest cycle this uop may rename (front-end delay)
	renamed  bool
	issued   bool
	done     bool
	squashed bool   // killed by a pipeline flush; never retires
	inReady  bool   // currently queued in the ready list
	inReplay bool   // load parked for store-buffer replay
	sqBy     uint64 // debug: seq of the flush point that squashed this uop
	sqAt     uint64 // debug: cycle of the squash
	sqHow    string // debug: which mechanism squashed it

	// wHead..wTail is the list of consumers renamed against this uop's
	// destination that were not ready at rename time, as nodes in
	// Machine.wnodes (0 = empty); completion wakes them.
	wHead, wTail int32

	// Dynamic predication.
	ep      *episode // episode this uop belongs to (nil outside DP mode)
	onAlt   bool     // fetched on the alternate path of its episode
	predID  int      // predicate register id (0 = not predicated)
	selPred int      // select-uop: predicate id it muxes on

	// Branch state (conditional and other control).
	predictedTaken bool
	predictedNext  uint64 // predicted next fetch PC
	actualTaken    bool
	actualNext     uint64
	resolved       bool
	mispredicted   bool
	isDiverge      bool // fetched as a dynamically predicated diverge branch
	lowConf        bool
	fetchGHR       bpred.GHR // speculative GHR *before* this branch's prediction
	fetchSnap      *fetchSnapshot
	checkpoint     *ratCheckpoint

	// Memory state.
	isLoad, isStore bool
	addr            uint64
	addrValid       bool
	sbIndex         int // store-buffer slot for stores
	memLat          int

	// Oracle bookkeeping (statistics and perfect prediction/confidence).
	oracleMark
	oracleNext uint64

	// Dual path.
	stream int // 0 = primary, 1 = forked stream

	// Observability: unique pipetrace id, assigned lazily on the first
	// probe event for this uop (0 = none yet). Unlike seq it is never
	// shared between uops.
	obsID uint64

	// Storage lifetime (arena.go). gen counts how often the arena has
	// recycled this slot, so a (pointer, gen) pair names one uop and goes
	// stale when the slot is reused. pin is the reclaimRetired pass that
	// last found this uop named by a rename map.
	gen uint32
	pin uint32
}

// oracleMark is what the fetch oracle recorded for a uop at fetch. An
// episode keeps a copy of its diverge branch's mark, which outlives the
// branch's own uop.
type oracleMark struct {
	onPath        bool   // fetched while the oracle was in lockstep
	oracleHasStep bool   // the oracle executed this instruction
	oracleTaken   bool   // oracle outcome, valid for on-path branches
	oracleCount   uint64 // architectural step count after the oracle ran it
}

// waiter records a consumer waiting on a producer's completion: a node
// of a producer's waiter list in Machine.wnodes.
type waiter struct {
	u     *uop
	which int32 // 1, 2 or 3: which source operand
	next  int32 // next node of the list (0 = end)
}

// srcReady reports whether all renamed sources are available.
func (u *uop) srcReady() bool {
	return (u.numSrc < 1 || u.src1.ready) &&
		(u.numSrc < 2 || u.src2.ready) &&
		(u.numSrc < 3 || u.src3.ready)
}

// isMarker reports whether the uop is a zero-latency bookkeeping uop
// (enter/exit/fork markers execute trivially).
func (u *uop) isMarker() bool {
	return u.kind == kindEnterPred || u.kind == kindEnterAlt ||
		u.kind == kindExitPred || u.kind == kindFork
}

// countsAsInst reports whether the uop contributes to the retired
// instruction count (program instructions with TRUE or no predicate;
// decided at retirement together with the predicate value).
func (u *uop) countsAsInst() bool { return u.kind == kindInst }
