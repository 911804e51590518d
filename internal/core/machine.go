package core

import (
	"fmt"

	"dmp/internal/bpred"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/prog"
)

// Machine is one configured processor instance bound to a program.
// Create with New, run with Run; a Machine is single-use.
type Machine struct {
	// The configuration, predictors, memory system, merge-point
	// predictor and speculative fetch history (ghr).
	WarmState
	prog *prog.Program

	// Architectural (committed) state.
	commitRegs [isa.NumRegs]uint64
	dmem       *emu.Memory

	// The fetch oracle, whose step log also checks retirement.
	oracle *fetchOracle

	// Pipeline. rob and feq slide over the fixed arrays robBuf and feqBuf
	// (pushQueue).
	arena           uopArena
	wnodes          []waiter            // waiter-list nodes (addWaiter); node 0 is the terminator
	wfree           int32               // head of the free node list
	parked          []uopRef            // retired producers awaiting reclaimRetired
	parkedKept      int                 // parked entries the last reclaimRetired kept
	reclaimPass     uint32              // number of reclaimRetired passes so far
	snaps           pool[fetchSnapshot] // control uops' fetch snapshots (uop.fetchSnap)
	ckpts           pool[ratCheckpoint] // branch and episode RAT checkpoints
	eps             pool[episode]       // episode records (uop.ep)
	epLive          []int32             // episode records handed out and not yet reclaimed
	squashLog       []squashRec         // by slot: who squashed each ROB entry (noteSquash)
	cycle           uint64
	seq             uint64
	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool
	feqCap          int      // fetch-queue bound: FetchQueueSize plus the delay's in-flight fetch groups
	feDelay         uint64   // cycles from fetch to rename (Config.frontEndDelay)
	feq             []uopRef // front-end delay queue (fetch -> rename)
	rob             []uopRef
	feqBuf, robBuf  []uopRef
	readyQ          []uopRef
	events          eventHeap
	sb              []uopRef // store buffer: in-flight stores in program order
	replayLoads     []uopRef

	// Rename state.
	rat        rat
	dualRats   [2]*rat  // per-stream RATs while a dual-path fork is live
	dualStore  [2]rat   // storage dualRats points into
	selPending []selReq // select-uops awaiting insertion bandwidth
	selBuf     [isa.NumRegs]selReq
	selEp      *episode
	selExitSeq uint64 // seq of the exit.pred that queued the selects

	// Dynamic predication. At most one episode is live (unresolved) at a
	// time; feEp is non-nil only while fetch is inside its predicted or
	// alternate phase.
	preds      *predFile
	feEp       *episode
	live       *episode
	episodes   map[int]*episode
	episodeSeq int

	// Dual path.
	streams      [2]streamCtx
	dualActive   bool
	dualEp       *episode
	fetchStream  int
	oracleStream int

	// Wrong-path classification (Figure 1). wrongFetches counts
	// recordWrongFetch calls, which the classifier must account in full.
	wp           wpClass
	wrongFetches uint64

	// Observability (probe.go). probe is nil unless SetProbe attached
	// one; every hook site in the pipeline guards on that. obsSeq hands
	// out unique per-uop ids for the pipetrace (seq is not unique:
	// select-uops share their exit marker's seq), which obsIDs records
	// by slot.
	probe  *Probe
	obsSeq uint64
	obsIDs []obsRec

	// Termination and run-loop bookkeeping. started/finished make the
	// RunUntil/Finish pair safe to call in any sensible order; wdRetired/
	// wdProgress carry the no-retirement watchdog across RunUntil calls.
	halted     bool
	runErr     error
	retired    uint64
	started    bool
	finished   bool
	wdRetired  uint64
	wdProgress uint64

	// ev is the run's knob evidence (Evidence), kept beside Stats.
	ev Evidence

	Stats Stats
}

// streamCtx is an independent fetch context for dual-path execution.
type streamCtx struct {
	active bool
	pc     uint64
	ghr    bpred.GHR
	ras    bpred.RASState
	halted bool
}

// selReq is one pending select-uop insertion.
type selReq struct {
	reg     isa.Reg
	fromCP2 ratEntry
	fromRAT ratEntry
}

// New builds a machine for p under cfg. The program must already carry
// diverge annotations if a predication mode is selected (run
// profile.Run first).
func New(p *prog.Program, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, err := newWarmState(cfg)
	if err != nil {
		return nil, err
	}
	m := newWith(p, cfg, &ws)

	m.dmem = emu.NewMemory()
	for addr, val := range p.Data {
		m.dmem.Write(addr, val)
	}
	m.commitRegs[isa.SP] = p.StackBase

	m.oracle = newFetchOracle(emu.New(p), m.oracleWindow())
	m.fetchPC = p.Entry
	m.ev.Recorded = true
	m.rat.e[isa.SP] = ratEntry{val: p.StackBase}
	return m, nil
}

// newWith builds the machine around an existing learned-state record,
// copied into the machine (cfg must already be validated, ws must come
// from newWarmState(cfg) or a Warmer under the same cfg). The caller
// finishes architectural setup: New starts at the program entry;
// NewFromCheckpointWarm transplants a checkpoint.
func newWith(p *prog.Program, cfg Config, ws *WarmState) *Machine {
	m := &Machine{WarmState: *ws, prog: p}
	m.cfg = cfg
	m.feDelay = uint64(cfg.frontEndDelay())
	m.feqCap = cfg.FetchQueueSize + cfg.frontEndDelay()*cfg.FetchWidth
	m.preds = newPredFile()
	m.episodes = map[int]*episode{}
	// Twice each queue's bound, so pushQueue never reallocates.
	m.robBuf = make([]uopRef, 2*cfg.ROBSize)
	m.rob = m.robBuf[:0]
	m.feqBuf = make([]uopRef, 2*(m.feqCap+1))
	m.feq = m.feqBuf[:0]
	return m
}

// oracleWindow bounds how many instructions the fetch oracle runs ahead
// of retirement: only fetched, unretired instructions, which the ROB and
// the fetch queue hold.
func (m *Machine) oracleWindow() int { return m.cfg.ROBSize + m.feqCap + 1 }

// Run simulates until the program halts or a run limit is reached, and
// returns the statistics. A golden-model divergence returns an error.
func (m *Machine) Run() (*Stats, error) {
	m.RunUntil(m.cfg.MaxInsts) //nolint:errcheck // Finish reports runErr
	return m.Finish()
}

// RunUntil advances the simulation until total retired program
// instructions reach n (0 = no target), the program halts, MaxCycles
// trips, or an error stops the run. It may be called repeatedly with
// growing targets; Stats.Cycles and Stats.FetchedUops are refreshed on
// return, so value snapshots of m.Stats between calls compose with
// Stats.Delta (how the sampling driver carves out a detailed interval
// after an unmeasured pipeline-fill ramp). Call Finish after the last
// RunUntil to finalize the run.
func (m *Machine) RunUntil(n uint64) (*Stats, error) {
	m.started = true
	for !m.halted && m.runErr == nil {
		if m.cfg.MaxCycles != 0 && m.cycle >= m.cfg.MaxCycles {
			break
		}
		if n != 0 && m.Stats.RetiredInsts >= n {
			break
		}
		m.retireStage()
		m.completeStage()
		m.issueStage()
		m.renameStage()
		m.fetchStage()
		m.cycle++
		if m.probe != nil {
			m.probeTick()
		}

		// Deadlock watchdog: a correct machine always retires something
		// within a bounded number of cycles (the worst chain is a memory
		// miss under a full window).
		if m.Stats.RetiredInsts != m.wdRetired {
			m.wdRetired = m.Stats.RetiredInsts
			m.wdProgress = m.cycle
		} else if m.cycle-m.wdProgress > 100_000 {
			m.runErr = fmt.Errorf("core: no retirement for 100000 cycles at cycle %d (pc head=%s)", m.cycle, m.headDesc())
		}
	}
	m.Stats.Cycles = m.cycle
	m.Stats.FetchedUops = m.arena.allocated
	return &m.Stats, m.runErr
}

// Finish finalizes a run started with Run or RunUntil: wrong-path
// episode flush, merge-predictor counters, probe completion, and arena
// and oracle-history release. The pipeline is permanently stopped
// afterwards — no uop will be dereferenced and the oracle never rewinds
// again, so the slabs and the history buffers can go back to their
// shared pools. Idempotent.
func (m *Machine) Finish() (*Stats, error) {
	if !m.finished {
		m.finished = true
		m.Stats.Cycles = m.cycle
		m.Stats.FetchedUops = m.arena.allocated
		m.flushWPAll()
		if m.merge != nil {
			mc := m.merge.Counts()
			m.Stats.MergeEvictions = mc.Evictions
			m.Stats.MergeTrainings = mc.Trainings
		}
		if m.probe != nil {
			m.probeDone()
		}
		m.arena.release()
		m.oracle.em.ReleaseHistory()
	}
	if m.runErr != nil {
		return &m.Stats, m.runErr
	}
	return &m.Stats, nil
}

func (m *Machine) headDesc() string {
	if len(m.rob) == 0 {
		return "<empty rob>"
	}
	h := m.arena.at(m.rob[0])
	d := fmt.Sprintf("seq=%d pc=%d %v kind=%v issued=%v done=%v inReady=%v inReplay=%v predID=%d",
		h.seq, h.pc, h.inst, h.kind, h.issued, h.done, h.inReady, h.inReplay, h.predID)
	// A source's value is its producer's seq until it is ready.
	d += fmt.Sprintf(" src1={r=%v v=%d} src2={r=%v v=%d} src3={r=%v v=%d}",
		h.src1Ready, h.src1, h.src2Ready, h.src2, h.src3Ready, h.src3)
	if h.kind == kindSelect {
		d += fmt.Sprintf(" selPred=%d known=%v", h.selPred, m.preds.known(h.selPred))
	}
	return d
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// CommittedReg returns an architectural register value at the current
// retirement point (tests compare against the functional emulator).
func (m *Machine) CommittedReg(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return m.commitRegs[r]
}

// CommittedMem returns a committed data-memory word.
func (m *Machine) CommittedMem(addr uint64) uint64 { return m.dmem.Read(addr) }

// nextSeq allocates a fetch-order sequence number.
func (m *Machine) nextSeq() uint64 {
	m.seq++
	return m.seq
}

// --- event heap: uops ordered by completion cycle ---

type event struct {
	at uint64
	u  uopRef
}

// eventHeap is a typed binary min-heap on event.at with direct push/pop
// methods — no interface{} boxing and no virtual Less/Swap calls on the
// completeStage hot path. The sift logic mirrors container/heap exactly
// so equal-cycle events pop in the same order they always did.
type eventHeap []event

// push adds an event and sifts it up.
func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	e := s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && s[r].at < s[l].at {
			j = r
		}
		if s[i].at <= s[j].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return e
}

func (m *Machine) schedule(u *uop, at uint64) {
	m.events.push(event{at: at, u: u.ref})
}

// enqueueReady puts a uop on the ready queue if it is fully ready and not
// already issued, queued, or squashed. The queue is kept ordered oldest
// first (the select policy) by inserting from the tail: uops become ready
// nearly in age order, so the insertion point is almost always the end and
// the per-cycle full sort this replaces is avoided entirely. Ties (select
// uops share the exit marker's seq) keep arrival order.
func (m *Machine) enqueueReady(u *uop) {
	if u.squashed || u.issued || u.inReady || !u.renamed {
		return
	}
	if !u.srcReady() {
		return
	}
	if u.kind == kindSelect && !m.preds.known(u.selPred) {
		return
	}
	u.inReady = true
	m.readyQ = m.insertBySeq(m.readyQ, u)
}

// pushQueue appends u to the FIFO q, a window sliding over the fixed
// array buf as its head is popped: when q reaches the end of buf, its
// live entries first move back to the front. buf holds twice the queue's
// bound, so append never reallocates and the moves cost at most one copy
// per popped entry.
//
//dmp:hotpath
func pushQueue(buf, q []uopRef, u uopRef) []uopRef {
	if len(q) == cap(q) && len(q) < len(buf) {
		q = buf[:copy(buf, q)]
	}
	return append(q, u)
}

// insertBySeq inserts u into the seq-ascending queue q, shifting from the
// tail. Equal seqs place u after the existing entries (stable).
//
//dmp:hotpath
func (m *Machine) insertBySeq(q []uopRef, u *uop) []uopRef {
	q = append(q, u.ref)
	i := len(q) - 1
	for i > 0 && m.arena.at(q[i-1]).seq > u.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = u.ref
	return q
}
