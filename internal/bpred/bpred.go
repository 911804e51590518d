// Package bpred implements the branch-direction predictors and
// target-prediction structures of the baseline processor in Table 2 of
// the paper: a 64KB perceptron predictor with 59-bit global history
// (Jiménez & Lin, HPCA 2001), a 4K-entry BTB, a 64-entry return address
// stack, and a 64K-entry indirect target cache. A gshare, a bimodal, and
// a gshare+bimodal hybrid predictor (the configuration Klauser et al.
// used for Dynamic Hammock Predication) are provided for comparison
// studies, along with a perfect predictor driven by the fetch oracle.
//
// All predictors share the DirPredictor interface and are updated
// speculatively at prediction time only through their global history
// (which the core checkpoints and repairs); pattern/weight state is
// updated at retirement, so wrong-path branches do not pollute it
// (Section 2.3).
package bpred

import (
	"encoding/binary"
	"math/bits"

	"dmp/internal/cow"
)

// GHR is a global history register of up to 64 branch outcomes; bit 0 is
// the most recent branch (1 = taken).
type GHR uint64

// Push shifts an outcome into the history.
func (g GHR) Push(taken bool) GHR {
	g <<= 1
	if taken {
		g |= 1
	}
	return g
}

// SetLast overwrites the most recent outcome bit. The DMP fetch mechanism
// uses this when re-fetching the alternate path: the checkpointed GHR's
// last bit — which corresponds to the diverge branch — is set for the
// taken path and reset for the not-taken path (Section 2.3).
func (g GHR) SetLast(taken bool) GHR {
	if taken {
		return g | 1
	}
	return g &^ 1
}

// DirPredictor predicts conditional branch directions.
//
// Predict returns the predicted direction given the branch PC and the
// current speculative global history. Update trains the predictor with
// the resolved outcome; it is called at retirement with the history the
// branch was predicted under.
type DirPredictor interface {
	Predict(pc uint64, hist GHR) bool
	Update(pc uint64, hist GHR, taken bool)
	// HistoryBits reports how many history bits the predictor consumes
	// (the core uses it to decide how much GHR to checkpoint; purely
	// informational).
	HistoryBits() int
	// Name identifies the predictor in reports.
	Name() string
}

// --- Perceptron predictor (Jiménez & Lin) ---

// Perceptron is the perceptron predictor: a table of weight vectors
// indexed by PC; the prediction is the sign of the dot product of the
// weights with the (bipolar) history, plus a bias weight. Training
// applies the standard threshold rule at retirement. Weight rows live in
// a copy-on-write table so sampled simulation snapshots the trained
// state in O(rows-metadata) (see internal/cow).
//
// Weights are bytes, as the paper's 64KB budget specifies. A row holds
// each weight w in [-128, 127] as the byte w+128: first the bias, then
// one byte per history bit, zero-padded to whole 8-byte words so the dot
// product reads eight weights per load.
type Perceptron struct {
	weights cow.Table[uint8]
	hbits   int
	theta   int32
}

// PerceptronConfig sizes a perceptron predictor. The paper's baseline is
// 64KB: 1021 entries × 59 history bits, whose 60 byte weights per row
// (padded to 64 bytes) fill 1021 × 64 B of the budget.
type PerceptronConfig struct {
	Entries     int // number of perceptrons (paper: 1021)
	HistoryBits int // history length (paper: 59)
}

// DefaultPerceptronConfig is the paper's 64KB configuration.
func DefaultPerceptronConfig() PerceptronConfig {
	return PerceptronConfig{Entries: 1021, HistoryBits: 59}
}

// NewPerceptron builds a perceptron predictor.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if cfg.Entries <= 0 || cfg.HistoryBits <= 0 || cfg.HistoryBits > 63 {
		panic("bpred: bad perceptron config")
	}
	rowBytes := (cfg.HistoryBits + 1 + 7) &^ 7 // +1 bias weight, padded to words
	p := &Perceptron{weights: cow.NewTable[uint8](cfg.Entries, rowBytes), hbits: cfg.HistoryBits,
		// Optimal threshold from Jiménez & Lin: 1.93*h + 14.
		theta: int32(1.93*float64(cfg.HistoryBits) + 14)}
	for i := 0; i < cfg.Entries; i++ {
		row := p.weights.Mut(i)
		for j := range row[:cfg.HistoryBits+1] {
			row[j] = 128 // weight 0
		}
	}
	return p
}

func (p *Perceptron) index(pc uint64) int { return int(pc % uint64(p.weights.Len())) }

// byteMask[b] has byte j all ones exactly when bit j of b is set: it
// selects the weights of one word whose history bits are set.
var byteMask = func() (m [256]uint64) {
	for b := range m {
		for j := 0; j < 8; j++ {
			if b>>j&1 == 1 {
				m[b] |= 0xFF << (8 * j)
			}
		}
	}
	return m
}()

// output is the perceptron's dot product: the bias weight plus, for each
// history bit, +w if the bit is set and -w if not. With the stored bytes
// b = w+128, S_sel the sum of the history bytes whose bit is set, S_all
// the sum of all history bytes and n = hbits,
//
//	y = (b0-128) + 2·(S_sel - 128·popcount(h)) - (S_all - 128·n).
//
// Both sums are taken eight bytes per word: the selected bytes are
// masked through byteMask, and each word's bytes are added in 16-bit
// lanes, which cannot overflow (a row has at most 64 bytes of at most
// 255). The padding bytes are zero and add nothing.
//
//dmp:hotpath
func (p *Perceptron) output(row []uint8, hist GHR) int32 {
	const lanes = 0x00FF00FF00FF00FF
	h := uint64(hist) & (1<<p.hbits - 1)
	b0 := int32(row[0])
	sel := h << 1 // byte j of the row holds the weight of history bit j-1
	var all, set uint64
	for ; len(row) >= 8; row = row[8:] {
		w := binary.LittleEndian.Uint64(row)
		m := w & byteMask[uint8(sel)]
		all += w&lanes + w>>8&lanes
		set += m&lanes + m>>8&lanes
		sel >>= 8
	}
	// Multiplying by 0x0001000100010001 adds the four lanes into the top
	// one.
	sAll := int32(all*0x0001000100010001>>48) - b0 // history bytes only
	sSel := int32(set * 0x0001000100010001 >> 48)
	return b0 - 128 + 2*(sSel-128*int32(bits.OnesCount64(h))) - (sAll - 128*int32(p.hbits))
}

// train applies the threshold rule to row i given its current output y:
// the row moves toward the outcome when the prediction was wrong or its
// magnitude did not exceed theta. Each weight steps by x*t, with x the
// bipolar history bit and t the bipolar outcome, saturating at the int8
// range.
//
//dmp:hotpath
func (p *Perceptron) train(i int, hist GHR, y int32, taken bool) {
	t := int16(-1)
	if taken {
		t = 1
	}
	if (y >= 0) == taken && max(y, -y) > p.theta {
		return
	}
	w := p.weights.Mut(i)
	w[0] = uint8(satAdd(int16(w[0])-128, t) + 128)
	h := uint64(hist)
	row := w[1 : p.hbits+1]
	for j, b := range row {
		row[j] = uint8(satAdd(int16(b)-128, (int16(h&1)*2-1)*t) + 128)
		h >>= 1
	}
}

// Predict returns true (taken) if the perceptron output is non-negative.
func (p *Perceptron) Predict(pc uint64, hist GHR) bool {
	return p.output(p.weights.RO(p.index(pc)), hist) >= 0
}

// Update trains with the resolved outcome under the prediction-time
// history.
func (p *Perceptron) Update(pc uint64, hist GHR, taken bool) {
	p.PredictUpdate(pc, hist, taken)
}

// PredictUpdate is Predict followed by Update under the same history,
// finding the row and computing the dot product once: both read the
// same weight row, and nothing writes it in between.
//
//dmp:hotpath
func (p *Perceptron) PredictUpdate(pc uint64, hist GHR, taken bool) bool {
	i := p.index(pc)
	y := p.output(p.weights.RO(i), hist)
	p.train(i, hist, y, taken)
	return y >= 0
}

func (p *Perceptron) HistoryBits() int { return p.hbits }
func (p *Perceptron) Name() string     { return "perceptron" }

// Clone snapshots the predictor's trained weights copy-on-write: rows
// are frozen and shared, and each instance privately re-copies a row on
// its first subsequent update to it.
func (p *Perceptron) Clone() *Perceptron {
	return &Perceptron{weights: p.weights.Clone(), hbits: p.hbits, theta: p.theta}
}

// satAdd adds with saturation at int8 range; 8-bit weights are the
// standard hardware budget.
func satAdd(a, b int16) int16 {
	return min(max(a+b, -128), 127)
}

// predictUpdater is a DirPredictor that can predict and train in one
// call (see PredictUpdate).
type predictUpdater interface {
	PredictUpdate(pc uint64, hist GHR, taken bool) bool
}

// PredictUpdate returns p's prediction for the branch at pc under hist
// and then trains p with the resolved outcome under the same history:
// exactly Predict followed by Update, in one call when p has a fused
// PredictUpdate method. It is for callers that know the outcome at
// prediction time (functional warming); the pipeline predicts at fetch
// and trains at retirement, with other branches' training in between,
// and keeps the two calls separate.
func PredictUpdate(p DirPredictor, pc uint64, hist GHR, taken bool) bool {
	if f, ok := p.(predictUpdater); ok {
		return f.PredictUpdate(pc, hist, taken)
	}
	pred := p.Predict(pc, hist)
	p.Update(pc, hist, taken)
	return pred
}

// --- two-bit counter helpers ---

type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// --- GShare ---

// GShare is a gshare predictor: a table of 2-bit counters indexed by
// PC xor history. The counter table is chunked copy-on-write
// (internal/cow) so sampled-simulation snapshots are O(metadata).
type GShare struct {
	table cow.Flat[counter]
	hbits int
	mask  uint64
}

// NewGShare builds a gshare with 2^logSize counters and hbits history
// bits (hbits ≤ logSize).
func NewGShare(logSize, hbits int) *GShare {
	if logSize <= 0 || logSize > 30 || hbits < 0 || hbits > logSize {
		panic("bpred: bad gshare config")
	}
	g := &GShare{table: cow.NewFlat[counter](1 << logSize), hbits: hbits, mask: 1<<logSize - 1}
	for i := 0; i < g.table.Len(); i++ {
		*g.table.Mut(i) = 2 // weakly taken
	}
	return g
}

func (g *GShare) index(pc uint64, hist GHR) uint64 {
	h := uint64(hist) & (1<<uint(g.hbits) - 1)
	return (pc ^ h) & g.mask
}

func (g *GShare) Predict(pc uint64, hist GHR) bool {
	return g.table.At(int(g.index(pc, hist))).taken()
}

func (g *GShare) Update(pc uint64, hist GHR, taken bool) {
	c := g.table.Mut(int(g.index(pc, hist)))
	*c = c.update(taken)
}

func (g *GShare) HistoryBits() int { return g.hbits }
func (g *GShare) Name() string     { return "gshare" }

// Clone snapshots the counter table copy-on-write.
func (g *GShare) Clone() *GShare {
	return &GShare{table: g.table.Clone(), hbits: g.hbits, mask: g.mask}
}

// --- Bimodal ---

// Bimodal is a PC-indexed table of 2-bit counters (chunked copy-on-write
// like GShare's).
type Bimodal struct {
	table cow.Flat[counter]
	mask  uint64
}

// NewBimodal builds a bimodal predictor with 2^logSize counters.
func NewBimodal(logSize int) *Bimodal {
	if logSize <= 0 || logSize > 30 {
		panic("bpred: bad bimodal config")
	}
	b := &Bimodal{table: cow.NewFlat[counter](1 << logSize), mask: 1<<logSize - 1}
	for i := 0; i < b.table.Len(); i++ {
		*b.table.Mut(i) = 2
	}
	return b
}

func (b *Bimodal) Predict(pc uint64, _ GHR) bool { return b.table.At(int(pc & b.mask)).taken() }

func (b *Bimodal) Update(pc uint64, _ GHR, taken bool) {
	c := b.table.Mut(int(pc & b.mask))
	*c = c.update(taken)
}

func (b *Bimodal) HistoryBits() int { return 0 }
func (b *Bimodal) Name() string     { return "bimodal" }

// Clone snapshots the counter table copy-on-write.
func (b *Bimodal) Clone() *Bimodal {
	return &Bimodal{table: b.table.Clone(), mask: b.mask}
}

// --- Hybrid (gshare + bimodal with a chooser) ---

// Hybrid is the gshare+bimodal tournament predictor used by Klauser et
// al. for Dynamic Hammock Predication. A PC-indexed chooser table of
// 2-bit counters selects between the components; the chooser trains
// toward the component that was correct when they disagree.
type Hybrid struct {
	g       *GShare
	b       *Bimodal
	chooser cow.Flat[counter]
	mask    uint64
}

// NewHybrid builds a hybrid with 2^logSize chooser entries over the two
// component predictors.
func NewHybrid(logSize, hbits int) *Hybrid {
	h := &Hybrid{
		g:       NewGShare(logSize, hbits),
		b:       NewBimodal(logSize),
		chooser: cow.NewFlat[counter](1 << logSize),
		mask:    1<<logSize - 1,
	}
	for i := 0; i < h.chooser.Len(); i++ {
		*h.chooser.Mut(i) = 2 // weakly prefer gshare
	}
	return h
}

func (h *Hybrid) Predict(pc uint64, hist GHR) bool {
	if h.chooser.At(int(pc & h.mask)).taken() {
		return h.g.Predict(pc, hist)
	}
	return h.b.Predict(pc, hist)
}

func (h *Hybrid) Update(pc uint64, hist GHR, taken bool) {
	gp := h.g.Predict(pc, hist)
	bp := h.b.Predict(pc, hist)
	if gp != bp {
		c := h.chooser.Mut(int(pc & h.mask))
		*c = c.update(gp == taken)
	}
	h.g.Update(pc, hist, taken)
	h.b.Update(pc, hist, taken)
}

func (h *Hybrid) HistoryBits() int { return h.g.HistoryBits() }
func (h *Hybrid) Name() string     { return "hybrid" }

// Clone snapshots both components and the chooser copy-on-write.
func (h *Hybrid) Clone() *Hybrid {
	return &Hybrid{g: h.g.Clone(), b: h.b.Clone(), chooser: h.chooser.Clone(), mask: h.mask}
}

// CloneDir snapshots a direction predictor's trained state
// (copy-on-write; the copies stay isolated). Sampled simulation warms
// one predictor continuously during functional fast-forward and clones
// it per checkpoint. A predictor of any other type is returned as-is.
func CloneDir(p DirPredictor) DirPredictor {
	switch v := p.(type) {
	case *Perceptron:
		return v.Clone()
	case *GShare:
		return v.Clone()
	case *Bimodal:
		return v.Clone()
	case *Hybrid:
		return v.Clone()
	default:
		return p
	}
}
