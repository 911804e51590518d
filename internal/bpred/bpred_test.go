package bpred

import (
	"testing"
	"testing/quick"
)

func TestGHRPush(t *testing.T) {
	var g GHR
	g = g.Push(true).Push(false).Push(true)
	if g != 0b101 {
		t.Errorf("ghr = %b, want 101", g)
	}
}

func TestGHRSetLast(t *testing.T) {
	g := GHR(0b100)
	if g.SetLast(true) != 0b101 {
		t.Error("SetLast(true) wrong")
	}
	if GHR(0b101).SetLast(false) != 0b100 {
		t.Error("SetLast(false) wrong")
	}
}

// train runs a predictor on a repeating pattern and returns the accuracy
// over the last half of the run.
func train(p DirPredictor, pcs []uint64, pattern func(i int, pc uint64) bool, n int) float64 {
	var hist GHR
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		for _, pc := range pcs {
			taken := pattern(i, pc)
			pred := p.Predict(pc, hist)
			p.Update(pc, hist, taken)
			if i >= n/2 {
				counted++
				if pred == taken {
					correct++
				}
			}
			hist = hist.Push(taken)
		}
	}
	return float64(correct) / float64(counted)
}

func predictors() map[string]DirPredictor {
	return map[string]DirPredictor{
		"perceptron": NewPerceptron(DefaultPerceptronConfig()),
		"gshare":     NewGShare(14, 12),
		"bimodal":    NewBimodal(14),
		"hybrid":     NewHybrid(14, 12),
	}
}

func TestPredictorsLearnBiasedBranch(t *testing.T) {
	for name, p := range predictors() {
		acc := train(p, []uint64{100}, func(i int, _ uint64) bool { return true }, 500)
		if acc < 0.99 {
			t.Errorf("%s: always-taken accuracy %.3f < 0.99", name, acc)
		}
	}
}

func TestHistoryPredictorsLearnAlternating(t *testing.T) {
	// T,N,T,N... is perfectly predictable from one history bit; bimodal
	// cannot learn it, the others must.
	for _, name := range []string{"perceptron", "gshare", "hybrid"} {
		p := predictors()[name]
		acc := train(p, []uint64{200}, func(i int, _ uint64) bool { return i%2 == 0 }, 1000)
		if acc < 0.95 {
			t.Errorf("%s: alternating accuracy %.3f < 0.95", name, acc)
		}
	}
}

func TestHistoryPredictorsLearnPeriodicPattern(t *testing.T) {
	// Period-5 pattern TTNTN.
	pat := []bool{true, true, false, true, false}
	for _, name := range []string{"perceptron", "gshare", "hybrid"} {
		p := predictors()[name]
		acc := train(p, []uint64{300}, func(i int, _ uint64) bool { return pat[i%len(pat)] }, 2000)
		if acc < 0.9 {
			t.Errorf("%s: periodic accuracy %.3f < 0.9", name, acc)
		}
	}
}

func TestPredictorsNearChanceOnRandom(t *testing.T) {
	// A pseudo-random data-dependent branch should stay close to chance.
	seed := uint64(12345)
	rnd := func() bool {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed>>63 == 1
	}
	outcomes := make([]bool, 20000)
	for i := range outcomes {
		outcomes[i] = rnd()
	}
	for name, p := range predictors() {
		acc := train(p, []uint64{400}, func(i int, _ uint64) bool { return outcomes[i] }, len(outcomes))
		if acc > 0.65 {
			t.Errorf("%s: random accuracy %.3f suspiciously high", name, acc)
		}
	}
}

func TestBimodalIgnoresHistory(t *testing.T) {
	b := NewBimodal(10)
	b.Update(7, 0, true)
	b.Update(7, 0, true)
	if b.Predict(7, 0) != b.Predict(7, 0xFFFF) {
		t.Error("bimodal prediction depends on history")
	}
}

func TestPerceptronSaturation(t *testing.T) {
	// An always-taken branch under random histories keeps training: the
	// history weights random-walk and cancel on average, so the output
	// hovers around the bias, which theta (127 for 59 history bits) lets
	// climb to the int8 limit and then holds there.
	p := NewPerceptron(DefaultPerceptronConfig())
	stream := saturatingStream(20000)
	for _, e := range stream {
		p.Update(0, e.hist, true)
	}
	// Weights must be saturated, not overflowed: the bias sits at 127
	// (one step past it would wrap the byte to -128).
	if bias := p.decodedRow(t, 0)[0]; bias != 127 {
		t.Errorf("bias weight = %d, want 127: saturated at the int8 limit", bias)
	}
	// And the saturated row still predicts its branch taken.
	for i, e := range stream {
		if !p.Predict(0, e.hist) {
			t.Fatalf("saturated perceptron predicts not-taken under history %d of the stream", i)
		}
	}
}

func TestSatAdd(t *testing.T) {
	if satAdd(127, 1) != 127 {
		t.Error("satAdd(127,1)")
	}
	if satAdd(-128, -1) != -128 {
		t.Error("satAdd(-128,-1)")
	}
	if satAdd(10, -3) != 7 {
		t.Error("satAdd(10,-3)")
	}
}

func TestCounterQuickStaysInRange(t *testing.T) {
	f := func(updates []bool) bool {
		c := counter(2)
		for _, u := range updates {
			c = c.update(u)
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictorNames(t *testing.T) {
	want := map[string]string{
		"perceptron": "perceptron", "gshare": "gshare",
		"bimodal": "bimodal", "hybrid": "hybrid",
	}
	for k, p := range predictors() {
		if p.Name() != want[k] {
			t.Errorf("%s.Name() = %q", k, p.Name())
		}
	}
	if (StaticTaken{}).Name() != "static-taken" || (StaticNotTaken{}).Name() != "static-nottaken" {
		t.Error("static predictor names")
	}
	if !(StaticTaken{}).Predict(0, 0) || (StaticNotTaken{}).Predict(0, 0) {
		t.Error("static predictions wrong")
	}
}

func TestBadConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { NewPerceptron(PerceptronConfig{Entries: 0, HistoryBits: 10}) },
		func() { NewPerceptron(PerceptronConfig{Entries: 10, HistoryBits: 64}) },
		func() { NewGShare(0, 0) },
		func() { NewGShare(10, 11) },
		func() { NewBimodal(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestHybridChooserPrefersBetterComponent(t *testing.T) {
	// An alternating branch: gshare learns it, bimodal cannot. After
	// training, the hybrid must predict like gshare.
	h := NewHybrid(12, 10)
	var hist GHR
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		h.Update(50, hist, taken)
		hist = hist.Push(taken)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		taken := i%2 == 0
		if h.Predict(50, hist) == taken {
			correct++
		}
		h.Update(50, hist, taken)
		hist = hist.Push(taken)
	}
	if correct < 95 {
		t.Errorf("hybrid alternating correct = %d/100", correct)
	}
}
