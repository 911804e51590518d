package bpred

import (
	"reflect"
	"testing"
)

// refPerceptron is the perceptron as first written, with a data-dependent
// branch per history bit in both the dot product and the training loop,
// over int16 weights. It is kept as the reference the byte-weight SWAR
// kernel must match bit for bit.
type refPerceptron struct {
	weights [][]int16
	hbits   int
	theta   int32
}

func newRefPerceptron(cfg PerceptronConfig) *refPerceptron {
	r := &refPerceptron{weights: make([][]int16, cfg.Entries), hbits: cfg.HistoryBits,
		theta: int32(1.93*float64(cfg.HistoryBits) + 14)}
	for i := range r.weights {
		r.weights[i] = make([]int16, cfg.HistoryBits+1)
	}
	return r
}

func (p *refPerceptron) output(pc uint64, hist GHR) int32 {
	w := p.weights[pc%uint64(len(p.weights))]
	y := int32(w[0])
	for i := 0; i < p.hbits; i++ {
		if hist>>uint(i)&1 == 1 {
			y += int32(w[i+1])
		} else {
			y -= int32(w[i+1])
		}
	}
	return y
}

func (p *refPerceptron) Predict(pc uint64, hist GHR) bool { return p.output(pc, hist) >= 0 }

func (p *refPerceptron) Update(pc uint64, hist GHR, taken bool) {
	y := p.output(pc, hist)
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if (y >= 0) == taken && mag > p.theta {
		return
	}
	w := p.weights[pc%uint64(len(p.weights))]
	t := int16(-1)
	if taken {
		t = 1
	}
	w[0] = refSatAdd(w[0], t)
	for i := 0; i < p.hbits; i++ {
		x := int16(-1)
		if hist>>uint(i)&1 == 1 {
			x = 1
		}
		w[i+1] = refSatAdd(w[i+1], x*t)
	}
}

func refSatAdd(a, b int16) int16 {
	s := a + b
	if s > 127 {
		return 127
	}
	if s < -128 {
		return -128
	}
	return s
}

// branchEvent is one branch of a synthetic stream.
type branchEvent struct {
	pc    uint64
	hist  GHR
	taken bool
}

// saturatingStream is a fixed-seed branch stream that drives perceptron
// weights into both saturation limits. Every history is random, so the
// history weights random-walk whenever a row trains; each PC's outcome
// is strongly biased (even PCs taken, odd not taken, 1 in 32 flipped),
// so bias weights pin at the limits and keep training, because theta
// (127 for 59 history bits) is the largest value a bias can reach.
func saturatingStream(n int) []branchEvent {
	s := uint64(0x5eed)
	next := func() uint64 { // splitmix64
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	ev := make([]branchEvent, n)
	for i := range ev {
		r := next()
		pc := r % 16
		taken := pc%2 == 0
		if r>>8&31 == 0 {
			taken = !taken
		}
		ev[i] = branchEvent{pc: pc * 64, hist: GHR(next()), taken: taken}
	}
	return ev
}

// decodedRow returns row i's signed weights, bias first, decoded from
// their stored bytes; it fails t if a padding byte is not zero, since the
// dot product sums the padding along with the weights.
func (p *Perceptron) decodedRow(t *testing.T, i int) []int16 {
	t.Helper()
	b := p.weights.RO(i)
	for j, pad := range b[p.hbits+1:] {
		if pad != 0 {
			t.Fatalf("row %d: padding byte %d = %d, want 0", i, j, pad)
		}
	}
	w := make([]int16, p.hbits+1)
	for j := range w {
		w[j] = int16(b[j]) - 128
	}
	return w
}

// TestPerceptronMatchesReference runs the byte-weight SWAR perceptron,
// through Predict+Update and through the fused PredictUpdate, in
// lockstep with the branchy int16 reference: every prediction and, at
// the end, every decoded weight must agree, and the stream must have
// pushed weights to both limits.
func TestPerceptronMatchesReference(t *testing.T) {
	cfg := DefaultPerceptronConfig()
	ref := newRefPerceptron(cfg)
	split, fused := NewPerceptron(cfg), NewPerceptron(cfg)
	for i, e := range saturatingStream(400_000) {
		want := ref.Predict(e.pc, e.hist)
		ref.Update(e.pc, e.hist, e.taken)
		if got := split.Predict(e.pc, e.hist); got != want {
			t.Fatalf("event %d: Predict = %v, reference %v", i, got, want)
		}
		split.Update(e.pc, e.hist, e.taken)
		if got := PredictUpdate(fused, e.pc, e.hist, e.taken); got != want {
			t.Fatalf("event %d: PredictUpdate = %v, reference %v", i, got, want)
		}
	}
	hi, lo := false, false
	for row := range ref.weights {
		want := ref.weights[row]
		for _, w := range want {
			hi = hi || w == 127
			lo = lo || w == -128
		}
		if got := split.decodedRow(t, row); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d after Predict+Update:\n got %v\nwant %v", row, got, want)
		}
		if got := fused.decodedRow(t, row); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d after PredictUpdate:\n got %v\nwant %v", row, got, want)
		}
	}
	if !hi || !lo {
		t.Errorf("stream reached weight 127: %v, -128: %v; it must exercise both saturation limits", hi, lo)
	}
}

// TestPredictUpdateMatchesSplit checks the bpred.PredictUpdate helper on
// every predictor: fused where the predictor implements it, Predict then
// Update otherwise, it must return the same predictions and leave the
// same trained state as the two separate calls.
func TestPredictUpdateMatchesSplit(t *testing.T) {
	stream := saturatingStream(100_000)
	for name := range predictors() {
		split, fused := predictors()[name], predictors()[name]
		for i, e := range stream {
			want := split.Predict(e.pc, e.hist)
			split.Update(e.pc, e.hist, e.taken)
			if got := PredictUpdate(fused, e.pc, e.hist, e.taken); got != want {
				t.Fatalf("%s event %d: PredictUpdate = %v, Predict %v", name, i, got, want)
			}
		}
		if !reflect.DeepEqual(split, fused) {
			t.Errorf("%s: state after PredictUpdate differs from Predict+Update", name)
		}
	}
}
