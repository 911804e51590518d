package core

import (
	"fmt"

	"dmp/internal/bpred"
	"dmp/internal/cache"
	"dmp/internal/conf"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/merge"
	"dmp/internal/prog"
)

// WarmState is the learned microarchitectural state functional warming
// maintains: cache hierarchy, branch direction predictor, confidence
// estimator, BTB, return address stack, indirect target cache, the
// merge-point predictor (when the configuration uses one), and the
// global history register. Sampled simulation trains one WarmState
// continuously while fast-forwarding (core.Warmer) and transplants a
// clone into each detailed interval's machine (NewFromCheckpointWarm),
// so intervals start with the long-lived learned state an exact run
// would have instead of cold tables.
type WarmState struct {
	hier        *cache.Hierarchy
	pred        bpred.DirPredictor
	confEst     conf.Estimator
	btb         *bpred.BTB
	ras         *bpred.RAS
	itc         *bpred.ITC
	merge       *merge.Predictor // nil unless cfg uses the runtime merge predictor
	ghr         bpred.GHR
	perfectConf bool
	// cachesOnly selects the reduced warming mode (Config.WarmMode
	// "caches"): observe trains only the cache hierarchy and skips
	// predictor training and wrong-path/episode excursions.
	cachesOnly bool

	// Episode-entry mirror of Machine.maybeEnterDP, so warming replays
	// the cache footprint of dynamic predication (see observe).
	mode        Mode
	cfmSource   string
	loopDiverge bool
	earlyExit   int
	epStore     [8]uint64 // owned copies of the active region's CFM PCs
	epCFMs      int       // CFM count while inside a mirrored episode region, else 0
	epLeft      int       // instruction budget left in that region
	dynCFM      [1]uint64
	dynDiv      prog.Diverge
}

// newWarmState builds the learned-state components for cfg — the same
// selection Machine construction uses (New installs the result).
func newWarmState(cfg Config) (WarmState, error) {
	ws := WarmState{
		perfectConf: cfg.ConfidenceName == "perfect",
		cachesOnly:  cfg.WarmMode == "caches",
		mode:        cfg.Mode,
		cfmSource:   cfg.CFMSource,
		loopDiverge: cfg.EnableLoopDiverge,
		earlyExit:   cfg.EarlyExitDefault,
	}
	switch cfg.PredictorName {
	case "", "perceptron":
		ws.pred = bpred.NewPerceptron(bpred.DefaultPerceptronConfig())
	case "gshare":
		ws.pred = bpred.NewGShare(16, 14)
	case "bimodal":
		ws.pred = bpred.NewBimodal(16)
	case "hybrid":
		ws.pred = bpred.NewHybrid(14, 12)
	}
	switch cfg.ConfidenceName {
	case "", "jrs":
		ws.confEst = conf.NewJRS(conf.DefaultJRSConfig())
	case "perfect":
		ws.confEst = conf.Perfect{}
	case "always-low":
		ws.confEst = conf.AlwaysLow{}
	case "never-low":
		ws.confEst = conf.NeverLow{}
	}
	ws.btb = bpred.NewBTB(4096, 4)
	ws.ras = bpred.NewRAS(64)
	ws.itc = bpred.NewITC(16)
	ws.hier = cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if cfg.Mode == ModeDMP && cfg.CFMSource != "" && cfg.CFMSource != "annotated" {
		mc := merge.DefaultConfig()
		if cfg.MergeTableSize > 0 {
			mc.TableSize = cfg.MergeTableSize
		}
		mp, err := merge.New(mc)
		if err != nil {
			return ws, err
		}
		ws.merge = mp
	}
	return ws, nil
}

// clone snapshots every component copy-on-write (stateless predictors
// are shared; they hold nothing). The snapshot is O(metadata): each
// component freezes its storage and re-copies privately only what is
// subsequently written, on whichever side writes it — so both the warmer
// and the detailed machine the clone seeds can keep training. The RAS is
// copied eagerly (64 words).
func (ws *WarmState) clone() *WarmState {
	c := &WarmState{
		hier:        ws.hier.Clone(),
		pred:        bpred.CloneDir(ws.pred),
		confEst:     conf.CloneEstimator(ws.confEst),
		btb:         ws.btb.Clone(),
		ras:         ws.ras.Clone(),
		itc:         ws.itc.Clone(),
		ghr:         ws.ghr,
		perfectConf: ws.perfectConf,
		cachesOnly:  ws.cachesOnly,
		mode:        ws.mode,
		cfmSource:   ws.cfmSource,
		loopDiverge: ws.loopDiverge,
		earlyExit:   ws.earlyExit,
		epStore:     ws.epStore,
		epCFMs:      ws.epCFMs,
		epLeft:      ws.epLeft,
	}
	if ws.merge != nil {
		c.merge = ws.merge.Clone()
	}
	return c
}

// wrongPathDepth bounds the runahead excursion taken at each mispredicted
// branch during functional warming. A detailed machine keeps fetching and
// executing down the mispredicted path until the branch resolves — up to
// several hundred instructions when resolution waits on a memory miss —
// and those wrong-path loads both pollute the caches and prefetch lines
// the correct path needs soon (pointer chases refetch the same nodes).
// Warming replays that effect architecturally: emu.Excursion walks the
// wrong path with copied registers and overlay stores, and only the
// caches see its footprint.
const wrongPathDepth = 256

// observe trains every component with one architecturally executed
// instruction, mirroring retireOne's update calls on the retired
// predicate-TRUE stream (predict-then-update, so the confidence
// estimator and merge gating see the same correct/incorrect signal).
// Mispredicted branches additionally replay bounded wrong-path runahead
// into the caches (see wrongPathDepth); em is the emulator that just
// executed st, whose state anchors the excursion. One deliberate
// approximation versus a detailed run remains: SelectiveBPUpdate cannot
// suppress updates for would-be-predicated branches, since no episodes
// exist without a pipeline.
//
// The direction predictor predicts and trains in one fused call
// (bpred.PredictUpdate): the outcome is known here, and none of the
// calls retirement makes between the two touches the predictor, so the
// result is bit-identical to a separate Predict and Update.
//
//dmp:hotpath
func (ws *WarmState) observe(em *emu.Emulator, st *emu.Step) {
	pc := st.PC
	ws.hier.InstLatency(pc * 8)
	if ws.cachesOnly {
		// Reduced warming (WarmMode "caches"): only the hierarchy sees the
		// stream. No predictor training means no mispredict signal, so
		// wrong-path and episode excursions are skipped too; per-interval
		// SampleWarmup is expected to rebuild the short-history state.
		if st.IsLoad || st.IsStore {
			ws.hier.DataLatency(st.Addr)
		}
		return
	}
	if ws.epCFMs > 0 {
		// Inside a mirrored episode region: the machine runs one episode
		// at a time, so further diverge branches are ignored until the
		// architectural stream reaches a CFM point (or the budget runs
		// out — an early exit would have flushed by now).
		hit := false
		for _, c := range ws.epStore[:ws.epCFMs] {
			if pc == c {
				hit = true
				break
			}
		}
		ws.epLeft--
		if hit || ws.epLeft <= 0 {
			ws.epCFMs = 0
		}
	}
	in := &st.Inst
	if in.Op == isa.BR {
		pred := bpred.PredictUpdate(ws.pred, pc, ws.ghr, st.Taken)
		low := ws.confEst.LowConfidence(pc, ws.ghr)
		if ws.perfectConf {
			low = pred != st.Taken
		}
		if ws.merge != nil {
			ws.merge.Observe(pc, in.Op, st.Taken, low || pred != st.Taken)
		}
		ws.confEst.Update(pc, ws.ghr, pred == st.Taken)
		if st.Taken {
			ws.btb.Insert(pc, st.NextPC)
		}
		ws.ghr = ws.ghr.Push(st.Taken)
		if !ws.maybeEpisode(em, pc, st, low) && pred != st.Taken {
			wrongPC := pc + 1
			if pred {
				wrongPC = in.Target
			}
			ws.runahead(em, wrongPC)
		}
		return
	}
	if ws.merge != nil {
		ws.merge.Observe(pc, in.Op, st.Taken, false)
	}
	switch {
	case in.IsCall():
		ws.ras.Push(pc + 1)
		if in.IsIndirect() {
			ws.itc.Update(pc, ws.ghr, st.NextPC)
		}
	case in.IsIndirect():
		ws.itc.Update(pc, ws.ghr, st.NextPC)
		if in.Op == isa.RET {
			ws.ras.Pop()
		}
	case st.IsLoad || st.IsStore:
		ws.hier.DataLatency(st.Addr)
	}
}

// maybeEpisode mirrors Machine.maybeEnterDP on the warmed state: a
// low-confidence conditional branch with a CFM source starts a dynamic
// predication episode, during which the machine fetches and executes
// BOTH hammock paths up to the merge point. The architectural stream
// already warms the taken side; the excursion replays the other side's
// fetch and load footprint into the caches, bounded by the episode's
// early-exit threshold and cut at any CFM point. Reports whether an
// episode region began at this branch (suppressing mispredict runahead —
// a predicated branch never flushes).
func (ws *WarmState) maybeEpisode(em *emu.Emulator, pc uint64, st *emu.Step, low bool) bool {
	if ws.mode != ModeDMP && ws.mode != ModeDHP {
		return false
	}
	if !low || ws.epCFMs > 0 {
		return false
	}
	d := ws.divergeFor(em.Prog, pc)
	if d == nil || len(d.CFMs) == 0 {
		return false
	}
	if ws.mode == ModeDHP && d.Class != prog.ClassSimpleHammock {
		return false
	}
	if d.Loop && !ws.loopDiverge {
		return false
	}
	thr := d.ExitThreshold
	if thr <= 0 {
		thr = ws.earlyExit
	}
	if thr <= 0 || thr > wrongPathDepth {
		thr = wrongPathDepth
	}
	altPC := pc + 1
	if !st.Taken {
		altPC = st.Inst.Target
	}
	ws.epCFMs = copy(ws.epStore[:], d.CFMs)
	ws.epLeft = wrongPathDepth
	em.Excursion(altPC, thr, func(s *emu.Step) bool {
		ws.hier.InstLatency(s.PC * 8)
		if s.IsLoad {
			ws.hier.DataLatency(s.Addr)
		}
		for _, c := range ws.epStore[:ws.epCFMs] {
			if s.NextPC == c {
				return false
			}
		}
		return true
	})
	return true
}

// divergeFor mirrors Machine.divergeFor for the warmed state: the CFM
// source is the compiler annotation, the runtime merge-point predictor,
// or their hybrid, per cfg.CFMSource.
func (ws *WarmState) divergeFor(p *prog.Program, pc uint64) *prog.Diverge {
	d := p.DivergeAt(pc)
	if ws.merge == nil {
		return d
	}
	if ws.cfmSource == "dynamic" {
		d = nil
	}
	if d != nil {
		return d // hybrid: the compiler annotation wins
	}
	pr, ok := ws.merge.Lookup(pc)
	if !ok {
		return nil
	}
	ws.dynCFM[0] = pr.CFM
	ws.dynDiv = prog.Diverge{
		CFMs:          ws.dynCFM[:1],
		Class:         prog.ClassComplexDiverge,
		ExitThreshold: pr.ExitThreshold,
		Loop:          p.Code[pc].Target <= pc,
	}
	return &ws.dynDiv
}

// runahead replays bounded wrong-path execution into the caches: every
// wrong-path instruction is fetched (I-cache) and wrong-path loads access
// the D-cache, exactly the accesses a detailed machine makes before the
// flush (loads issue at execute; stores only touch the cache at retire,
// which a wrong path never reaches).
func (ws *WarmState) runahead(em *emu.Emulator, pc uint64) {
	em.Excursion(pc, wrongPathDepth, func(s *emu.Step) bool {
		ws.hier.InstLatency(s.PC * 8)
		if s.IsLoad {
			ws.hier.DataLatency(s.Addr)
		}
		return true
	})
}

// Warmer is the continuous functional-warming engine of sampled
// simulation: an architectural emulator plus the WarmState it trains.
// One Warmer makes a single pass over the program; at each sampling
// checkpoint the driver captures Checkpoint() (architectural state) and
// Snapshot() (learned state) to seed an independent detailed machine.
type Warmer struct {
	em *emu.Emulator
	ws WarmState
	st emu.Step // the record WarmTo steps into, reused per instruction
}

// NewWarmer builds a warmer for p with cfg's predictor complement.
func NewWarmer(p *prog.Program, cfg Config) (*Warmer, error) {
	ws, err := newWarmState(cfg)
	if err != nil {
		return nil, err
	}
	return &Warmer{em: emu.New(p), ws: ws}, nil
}

// WarmTo advances to the absolute instruction count target, training the
// warm state on every instruction along the way. In steady state it
// allocates nothing (TestWarmToAllocs).
//
//dmp:hotpath
func (w *Warmer) WarmTo(target uint64) error {
	for w.em.Count < target && !w.em.Halted {
		pc := w.em.PC
		if err := w.em.StepInto(&w.st); err != nil {
			return fmt.Errorf("core: functional warm at pc %d: %w", pc, err)
		}
		w.ws.observe(w.em, &w.st)
	}
	return nil
}

// SkipTo advances to the absolute instruction count target with no
// training — for the tail after the last checkpoint, where learned state
// no longer matters and the raw emulator is faster.
func (w *Warmer) SkipTo(target uint64) error {
	if target <= w.em.Count {
		return nil
	}
	_, err := w.em.Run(target - w.em.Count)
	return err
}

// RunToHalt advances to program halt with no training.
func (w *Warmer) RunToHalt() error {
	_, err := w.em.Run(0)
	return err
}

// Count returns the number of instructions executed so far.
func (w *Warmer) Count() uint64 { return w.em.Count }

// Halted reports whether the program has halted.
func (w *Warmer) Halted() bool { return w.em.Halted }

// Checkpoint captures the current architectural state.
func (w *Warmer) Checkpoint() emu.Checkpoint { return w.em.Checkpoint() }

// Snapshot captures the current learned state as an isolated
// copy-on-write clone: O(metadata) cost (see WarmState.clone), with the
// per-component data copied lazily as either side keeps training.
func (w *Warmer) Snapshot() *WarmState { return w.ws.clone() }
