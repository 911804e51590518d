// Package conf implements branch-confidence estimators. The diverge-merge
// processor enters dynamic predication mode only for *low-confidence*
// diverge branches; the quality of the estimator directly controls how
// often predication overhead is paid for correctly predicted branches
// (exit cases 1, 3 and 5 in Table 1 of the paper).
//
// The baseline estimator is the JRS miss-distance counter estimator
// (Jacobsen, Rotenberg & Smith, MICRO 1996) at the paper's 1KB budget
// (Table 2); see DefaultJRSConfig for the history-length scale
// adaptation. A perfect estimator (low confidence exactly when the
// branch is actually mispredicted) bounds the potential, as in the
// diverge-perf-conf configuration.
package conf

import (
	"dmp/internal/bpred"
	"dmp/internal/cow"
)

// Estimator estimates confidence in a conditional branch prediction.
//
// LowConfidence is consulted at fetch time. Update trains the estimator
// at retirement with whether the prediction was correct.
type Estimator interface {
	LowConfidence(pc uint64, hist bpred.GHR) bool
	Update(pc uint64, hist bpred.GHR, correct bool)
	Name() string
}

// JRS is the Jacobsen-Rotenberg-Smith confidence estimator: a table of
// miss-distance counters (MDCs) indexed by PC xor global history. A
// correct prediction increments the counter saturating at max; an
// incorrect prediction resets it to zero. Confidence is high when the
// counter is at or above the confident threshold.
type JRS struct {
	table     cow.Flat[uint8]
	mask      uint64
	histBits  int
	max       uint8
	threshold uint8
}

// JRSConfig sizes a JRS estimator.
type JRSConfig struct {
	LogEntries int   // log2 of table entries
	HistBits   int   // history bits XORed into the index
	Max        uint8 // counter saturation value
	Threshold  uint8 // counter >= Threshold means high confidence
}

// DefaultJRSConfig is the paper's 1KB budget — 2K 4-bit counters (stored
// here one per byte) — with the history shortened from the paper's 12
// bits to 5. The shorter history is a simulation-scale adaptation: the
// runs here are ~10^5 instructions rather than the paper's ~10^8, and
// with 12 bits of history each (pc, history) context sees too few
// branches for the miss-distance counters to ever reach the confidence
// threshold, so the estimator would flag essentially every branch
// low-confidence forever.
func DefaultJRSConfig() JRSConfig {
	return JRSConfig{LogEntries: 11, HistBits: 5, Max: 15, Threshold: 15}
}

// NewJRS builds a JRS estimator.
func NewJRS(cfg JRSConfig) *JRS {
	if cfg.LogEntries <= 0 || cfg.LogEntries > 26 || cfg.Threshold > cfg.Max+1 {
		panic("conf: bad JRS config")
	}
	return &JRS{
		table:     cow.NewFlat[uint8](1 << cfg.LogEntries),
		mask:      1<<cfg.LogEntries - 1,
		histBits:  cfg.HistBits,
		max:       cfg.Max,
		threshold: cfg.Threshold,
	}
}

func (j *JRS) index(pc uint64, hist bpred.GHR) uint64 {
	h := uint64(hist) & (1<<uint(j.histBits) - 1)
	return (pc ^ h) & j.mask
}

// LowConfidence reports whether the prediction for the branch at pc
// should be treated as low confidence.
func (j *JRS) LowConfidence(pc uint64, hist bpred.GHR) bool {
	return j.table.At(int(j.index(pc, hist))) < j.threshold
}

// Update trains the estimator with the prediction outcome.
func (j *JRS) Update(pc uint64, hist bpred.GHR, correct bool) {
	c := j.table.Mut(int(j.index(pc, hist)))
	if correct {
		if *c < j.max {
			*c++
		}
	} else {
		*c = 0
	}
}

func (j *JRS) Name() string { return "jrs" }

// Perfect is an oracle estimator: the core wires it to the fetch oracle,
// so LowConfidence is never called on it directly. Its presence in a
// configuration selects oracle behaviour.
type Perfect struct{}

func (Perfect) LowConfidence(uint64, bpred.GHR) bool { return false }
func (Perfect) Update(uint64, bpred.GHR, bool)       {}
func (Perfect) Name() string                         { return "perfect" }

// AlwaysLow treats every branch as low confidence (predicate everything
// possible); useful for stress tests and overhead measurement.
type AlwaysLow struct{}

func (AlwaysLow) LowConfidence(uint64, bpred.GHR) bool { return true }
func (AlwaysLow) Update(uint64, bpred.GHR, bool)       {}
func (AlwaysLow) Name() string                         { return "always-low" }

// NeverLow treats every branch as high confidence (disables dynamic
// predication); the resulting machine must behave exactly like the
// baseline, which tests exploit.
type NeverLow struct{}

func (NeverLow) LowConfidence(uint64, bpred.GHR) bool { return false }
func (NeverLow) Update(uint64, bpred.GHR, bool)       {}
func (NeverLow) Name() string                         { return "never-low" }

// Clone snapshots the estimator's counter table copy-on-write.
func (j *JRS) Clone() *JRS {
	n := *j
	n.table = j.table.Clone()
	return &n
}

// CloneEstimator snapshots an estimator's trained state. Sampled
// simulation warms one estimator continuously during functional
// fast-forward and clones it per checkpoint. Stateless estimators
// (Perfect, AlwaysLow, NeverLow) are returned as-is.
func CloneEstimator(e Estimator) Estimator {
	if j, ok := e.(*JRS); ok {
		return j.Clone()
	}
	return e
}
