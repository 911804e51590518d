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
// would have instead of cold tables. A Machine embeds its WarmState: the
// fetch stage predicts from, and retirement trains, the same record, and
// ghr is the machine's speculative fetch history.
//
// The record also carries the configuration it was built for, because
// episode entry (episodeDiverge) is a rule over learned state and
// configuration that fetch and functional warming share.
type WarmState struct {
	cfg         Config
	hier        *cache.Hierarchy
	pred        bpred.DirPredictor
	confEst     conf.Estimator
	btb         *bpred.BTB
	ras         *bpred.RAS
	itc         *bpred.ITC
	merge       *merge.Predictor // nil unless cfg uses the runtime merge predictor
	ghr         bpred.GHR
	perfectConf bool // cfg.ConfidenceName == "perfect", read on every branch

	// dynDiv/dynCFM are the scratch annotation a merge-predictor hit is
	// synthesized into (episodeDiverge); the region is only alive until
	// the caller copies its CFM out.
	dynDiv prog.Diverge
	dynCFM [1]uint64
}

// epRegion is continuous warming's record of the episode region it is
// replaying (maybeEpisode). It belongs to the Warmer, not to the learned
// state: a detailed machine tracks its own episodes.
type epRegion struct {
	cfms [8]uint64 // owned copies of the region's CFM PCs
	n    int       // CFM count while inside a replayed region, else 0
	left int       // instruction budget left in the region
}

// newWarmState builds the learned-state components for cfg — the same
// selection Machine construction uses (New installs the result).
func newWarmState(cfg Config) (WarmState, error) {
	ws := WarmState{cfg: cfg, perfectConf: cfg.ConfidenceName == "perfect"}
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
	c := *ws
	c.hier = ws.hier.Clone()
	c.pred = bpred.CloneDir(ws.pred)
	c.confEst = conf.CloneEstimator(ws.confEst)
	c.btb = ws.btb.Clone()
	c.ras = ws.ras.Clone()
	c.itc = ws.itc.Clone()
	if ws.merge != nil {
		c.merge = ws.merge.Clone()
	}
	return &c
}

// mergeLookup records whether episode entry consulted the merge-point
// predictor, and its answer.
type mergeLookup uint8

const (
	mergeNotAsked mergeLookup = iota // no predictor, or the annotation won
	mergeMiss
	mergeHit
)

// episodeDiverge is the episode-entry rule fetch (Machine.maybeEnterDP)
// and functional warming (maybeEpisode) share: the diverge region a
// low-confidence conditional branch at pc predicates, or nil when it
// stays a normally predicted branch. The CFM source is the compiler
// annotation, the runtime merge-point predictor, or their hybrid, per
// cfg.CFMSource: with no predictor attached (annotated source, or any
// non-DMP mode) this is the static annotation; under the dynamic source
// the annotation is ignored; under hybrid it wins when present, except a
// loop mark cfg does not predicate, which reads as no annotation. A
// region with no CFM point is no region. The region is then filtered by
// the classes cfg predicates (enters). A predictor hit is synthesized
// into the scratch dynDiv — the caller copies the CFM out, so the next
// call may reuse it.
//
// met is the class of the region found, before the filter, and
// hybridLoop the class of a loop mark met under hybrid, whether or not
// cfg predicates it: the records of Evidence.Seen.
func (ws *WarmState) episodeDiverge(p *prog.Program, pc uint64) (d *prog.Diverge, lk mergeLookup, met, hybridLoop Regions) {
	d, lk = p.DivergeAt(pc), mergeNotAsked
	if ws.merge != nil {
		if d != nil && d.Loop && ws.cfg.CFMSource == "hybrid" {
			hybridLoop = regionOf(d)
			if !ws.cfg.EnableLoopDiverge {
				d = nil
			}
		}
		if d == nil || ws.cfg.CFMSource == "dynamic" {
			d, lk = nil, mergeMiss
			if pr, ok := ws.merge.Lookup(pc); ok {
				lk = mergeHit
				ws.dynCFM[0] = pr.CFM
				ws.dynDiv = prog.Diverge{
					CFMs: ws.dynCFM[:1],
					// The predictor knows reconvergence, not hammock shape, so
					// the learned region is treated as a complex
					// (frequently-hit-path) diverge; backward branches are
					// flagged as loop diverges and filtered like annotated ones.
					Class:         prog.ClassComplexDiverge,
					ExitThreshold: pr.ExitThreshold,
					Loop:          p.Code[pc].Target <= pc,
				}
				d = &ws.dynDiv
			}
		}
	}
	if d == nil || len(d.CFMs) == 0 {
		return nil, lk, 0, hybridLoop
	}
	met = regionOf(d)
	if enters(&ws.cfg)&met == 0 {
		return nil, lk, met, hybridLoop
	}
	return d, lk, met, hybridLoop
}

// defaultExitThreshold is the early-exit threshold of a region marked
// without one of its own. Every mark the profiler writes and every
// merge-predictor entry carries its own; generated and hand-marked
// programs may not.
const defaultExitThreshold = 64

// exitThreshold is the early-exit threshold of an episode over d: the
// region's own, else defaultExitThreshold.
func exitThreshold(d *prog.Diverge) int {
	if d.ExitThreshold > 0 {
		return d.ExitThreshold
	}
	return defaultExitThreshold
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
// executed st, whose state anchors the excursion. With an episode region
// rg, a branch that enters dynamic predication replays the episode's
// alternate path instead (maybeEpisode); with rg nil no episode is
// replayed.
//
// The direction predictor predicts and trains in one fused call
// (bpred.PredictUpdate): the outcome is known here, and none of the
// calls retirement makes between the two touches the predictor, so the
// result is bit-identical to a separate Predict and Update.
//
//dmp:hotpath
func (ws *WarmState) observe(em *emu.Emulator, st *emu.Step, rg *epRegion) {
	pc := st.PC
	ws.hier.InstLatency(pc * 8)
	if rg != nil && rg.n > 0 {
		// Inside a replayed episode region: the machine runs one episode
		// at a time, so further diverge branches are ignored until the
		// architectural stream reaches a CFM point (or the budget runs
		// out — an early exit would have flushed by now).
		hit := false
		for _, c := range rg.cfms[:rg.n] {
			if pc == c {
				hit = true
				break
			}
		}
		rg.left--
		if hit || rg.left <= 0 {
			rg.n = 0
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
		if !(rg != nil && low && ws.maybeEpisode(em, pc, st, rg)) && pred != st.Taken {
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

// observeCaches is observe for reduced warming (WarmMode "caches"): only
// the hierarchy sees the stream. No predictor training means no
// mispredict signal, so wrong-path and episode excursions are skipped
// too; per-interval SampleWarmup is expected to rebuild the short-history
// state.
//
//dmp:hotpath
func (ws *WarmState) observeCaches(st *emu.Step) {
	ws.hier.InstLatency(st.PC * 8)
	if st.IsLoad || st.IsStore {
		ws.hier.DataLatency(st.Addr)
	}
}

// maybeEpisode replays dynamic predication on the warmed state: a
// low-confidence conditional branch that the shared entry rule
// (episodeDiverge) predicates starts an episode, during which the
// machine fetches and executes BOTH hammock paths up to the merge point.
// The architectural stream already warms the taken side; the excursion
// replays the other side's fetch and load footprint into the caches,
// bounded by the episode's early-exit threshold and cut at any CFM
// point. Reports whether an episode region began at this branch
// (suppressing mispredict runahead — a predicated branch never flushes).
func (ws *WarmState) maybeEpisode(em *emu.Emulator, pc uint64, st *emu.Step, rg *epRegion) bool {
	if (ws.cfg.Mode != ModeDMP && ws.cfg.Mode != ModeDHP) || rg.n > 0 {
		return false
	}
	d, _, _, _ := ws.episodeDiverge(em.Prog, pc)
	if d == nil {
		return false
	}
	thr := min(exitThreshold(d), wrongPathDepth)
	altPC := pc + 1
	if !st.Taken {
		altPC = st.Inst.Target
	}
	rg.n = copy(rg.cfms[:], d.CFMs)
	rg.left = wrongPathDepth
	em.Excursion(altPC, thr, func(s *emu.Step) bool {
		ws.hier.InstLatency(s.PC * 8)
		if s.IsLoad {
			ws.hier.DataLatency(s.Addr)
		}
		for _, c := range rg.cfms[:rg.n] {
			if s.NextPC == c {
				return false
			}
		}
		return true
	})
	return true
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
	rg epRegion
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
	cachesOnly := w.ws.cfg.WarmMode == "caches"
	for w.em.Count < target && !w.em.Halted {
		pc := w.em.PC
		if err := w.em.StepInto(&w.st); err != nil {
			return fmt.Errorf("core: functional warm at pc %d: %w", pc, err)
		}
		if cachesOnly {
			w.ws.observeCaches(&w.st)
		} else {
			w.ws.observe(w.em, &w.st, &w.rg)
		}
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
