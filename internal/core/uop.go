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

// uopRef names a uop by its arena slot: slot+1, so the zero value names
// no uop. Every structure that holds a uop holds a uopRef, never a
// pointer, so the uop slabs and the queues hold no pointers: the
// collector does not scan them and stores into them need no write
// barrier. A holder that can outlive the uop also keeps the uop's
// generation (uop.gen) and checks it before use.
type uopRef int32

// uop is one entry of the machine's instruction window: a fetched
// instruction or inserted predication uop, carried from fetch to
// retirement. It holds no pointers (episodes, snapshots and checkpoints
// are pool indices), and the fields every stage tests come first, in
// one cache line.
type uop struct {
	seq    uint64 // global age; also the rename tag of the destination
	dstVal uint64

	// wHead..wTail is the list of consumers renamed against this uop's
	// destination that were not ready at rename time, as nodes in
	// Machine.wnodes (0 = empty); completion wakes them.
	wHead, wTail int32

	predID int32  // predicate register id (0 = not predicated)
	ref    uopRef // this uop's own slot, fixed when its slab is set up

	// Storage lifetime (arena.go). gen counts how often the arena has
	// recycled this slot, so a (slot, gen) pair names one uop and goes
	// stale when the slot is reused. pin is the reclaimRetired pass that
	// last found this uop named by a rename map. Renaming against a
	// producer reads gen beside the fields it reads next.
	gen uint32
	pin uint32

	kind    uopKind
	numSrc  int8
	dstArch isa.Reg
	stream  uint8 // dual path: 0 = primary, 1 = forked stream

	// Flags, adjacent bytes. Scheduling state:
	renamed  bool
	issued   bool
	done     bool
	squashed bool // killed by a pipeline flush; never retires
	inReady  bool // currently queued in the ready list
	inReplay bool // load parked for store-buffer replay
	hasDst   bool
	// Memory:
	isLoad, isStore bool
	addrValid       bool
	// Dynamic predication:
	onAlt bool // fetched on the alternate path of its episode
	// Branch state (conditional and other control):
	predictedTaken bool
	actualTaken    bool
	resolved       bool
	mispredicted   bool
	isDiverge      bool // fetched as a dynamically predicated diverge branch
	lowConf        bool
	// Renamed sources:
	src1Ready, src2Ready, src3Ready bool

	// Renamed source values. Until a source is ready, its value is the
	// producing uop's seq (for diagnostics); the producer broadcasts the
	// value at completion. src3 is used only by select-uops: src1 is the
	// predicted-path value, src3 the alternate-path value (see rename.go).
	src1, src2, src3 uint64

	pc       uint64
	inst     isa.Inst
	renameAt uint64 // earliest cycle this uop may rename (front-end delay)
	addr     uint64

	predictedNext uint64    // predicted next fetch PC
	actualNext    uint64    // resolved next PC
	fetchGHR      bpred.GHR // speculative GHR *before* this branch's prediction

	// Oracle bookkeeping (statistics and perfect prediction/confidence).
	oracleMark

	// Misprediction-recovery state, indices into Machine.snaps and
	// Machine.ckpts (0 = none): the fetch snapshot every control uop
	// carries from fetch, and the RAT checkpoint every branch takes at
	// rename.
	fetchSnap  int32
	checkpoint int32

	// Dynamic predication. ep indexes Machine.eps (0 = outside DP mode).
	ep      int32 // episode this uop belongs to
	selPred int32 // select-uop: predicate id it muxes on
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
	u     uopRef
	which int32 // 1, 2 or 3: which source operand
	next  int32 // next node of the list (0 = end)
}

// srcReady reports whether all renamed sources are available.
func (u *uop) srcReady() bool {
	return (u.numSrc < 1 || u.src1Ready) &&
		(u.numSrc < 2 || u.src2Ready) &&
		(u.numSrc < 3 || u.src3Ready)
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
