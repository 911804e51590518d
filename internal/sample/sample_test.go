package sample

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"dmp/internal/core"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

// mcfProg builds the mcf workload at scale 1 and annotates it in place
// (the pointer-chase benchmark: memory-bound, phase-heavy — the hardest
// of the suite for sampling, which is exactly why the tests use it).
func mcfProg(t *testing.T) *prog.Program {
	t.Helper()
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(workload.BuildConfig{Scale: 1})
	if _, err := profile.Run(p, profile.DefaultOptions()); err != nil {
		t.Fatalf("profile: %v", err)
	}
	return p
}

func sampleCfg() core.Config {
	cfg := core.EnhancedDMPConfig()
	cfg.SampleMode = true
	return cfg
}

func exactStats(t *testing.T, p *prog.Program, cfg core.Config) *core.Stats {
	t.Helper()
	cfg.SampleMode = false
	cfg.SamplePeriod, cfg.SampleInterval, cfg.SampleWarmup = 0, 0, 0
	m, err := core.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSampledVsExact(t *testing.T) {
	p := mcfProg(t)
	cfg := sampleCfg()
	ex := exactStats(t, p, cfg)
	r, err := Run(p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalInsts != ex.RetiredInsts {
		t.Errorf("TotalInsts = %d, exact retired %d", r.TotalInsts, ex.RetiredInsts)
	}
	if r.K < 2 {
		t.Fatalf("K = %d, want >= 2 intervals at scale 1", r.K)
	}
	if r.CI95 <= 0 {
		t.Errorf("CI95 = %g, want > 0 with %d intervals", r.CI95, r.K)
	}
	// Sampling is an estimate, not a golden run: a loose sanity bound.
	// The measured error at these parameters is ~6%; 15% failing means
	// warming or extrapolation regressed structurally.
	errPct := 100 * math.Abs(r.IPC-ex.IPC()) / ex.IPC()
	if errPct > 15 {
		t.Errorf("sampled IPC %.4f vs exact %.4f: |err| %.1f%% > 15%%", r.IPC, ex.IPC(), errPct)
	}
	if got := r.Extrapolated.RetiredInsts; got != r.TotalInsts {
		t.Errorf("Extrapolated.RetiredInsts = %d, want %d", got, r.TotalInsts)
	}
	if !r.Extrapolated.HaltRetired {
		t.Error("Extrapolated.HaltRetired = false for a run-to-halt sample")
	}
}

// TestResultAccounting pins that a real sampled run passes the manifest
// invariants dmpobs -manifest checks (Result.Check), that intervals
// follow the exact prefix, and that every interval measures about the
// interval length.
func TestResultAccounting(t *testing.T) {
	p := mcfProg(t)
	r, err := Run(p, sampleCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Error(err)
	}
	if r.K > 0 && r.Intervals[0].Start < r.PrefixRetired {
		t.Errorf("first interval starts at %d, inside the %d-instruction prefix", r.Intervals[0].Start, r.PrefixRetired)
	}
	for _, iv := range r.Intervals {
		// RunUntil drains in-flight retirement past the target, so an
		// interval can run a few instructions long or short of the knob.
		if diff := int64(iv.Retired) - int64(r.IntervalLen); diff < -64 || diff > 64 {
			t.Errorf("interval %d: retired %d, want %d±64", iv.Index, iv.Retired, r.IntervalLen)
		}
	}
}

// TestDeterministic pins that two sampled runs are identical modulo wall
// clock — required for the result cache and the golden sampling table.
// The manifest carries every deterministic field.
func TestDeterministic(t *testing.T) {
	p := mcfProg(t)
	a, err := Run(p, sampleCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, sampleCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("two sampled runs differ:\n%s\n%s", ja, jb)
	}
	sa, sb := *a.Extrapolated, *b.Extrapolated
	if sa != sb {
		t.Errorf("extrapolated Stats differ:\n%+v\n%+v", sa, sb)
	}
}

// TestSharedSlots pins that results do not depend on interval scheduling:
// shared worker pools of one and four slots (intervals overlap the warming
// pass) and the private pool give byte-identical manifests, and every
// shared slot is handed back.
func TestSharedSlots(t *testing.T) {
	p := mcfProg(t)
	a, err := Run(p, sampleCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	for _, n := range []int{1, 4} {
		slots := make(chan struct{}, n)
		b, err := Run(p, sampleCfg(), Options{Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%d-slot shared-pool run differs from private-pool run", n)
		}
		if len(slots) != 0 {
			t.Errorf("%d slots: %d slots leaked", n, len(slots))
		}
	}
}

// TestSequentialMatchesStreamed is the pipeline determinism golden: runs
// whose intervals go to worker goroutines (the private pool, four shared
// slots) must produce byte-identical results — manifest AND full
// extrapolated Stats — to the sequential run, where a slot channel with
// no free slot makes every interval run inline on the warming pass. Both
// warm modes are checked. Run under -race this also exercises the
// checkpoint handoff to worker goroutines for races.
func TestSequentialMatchesStreamed(t *testing.T) {
	p := mcfProg(t)
	for _, mode := range []string{"full", "caches"} {
		cfg := sampleCfg()
		cfg.WarmMode = mode
		if mode == "caches" {
			cfg.SampleWarmup = 512
		}
		seq, err := Run(p, cfg, Options{Slots: make(chan struct{})})
		if err != nil {
			t.Fatal(err)
		}
		js, _ := json.Marshal(seq)
		for _, o := range []Options{{}, {Slots: make(chan struct{}, 4)}} {
			str, err := Run(p, cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(str)
			if !bytes.Equal(js, ja) {
				t.Errorf("%s, shared=%t: streamed manifest differs from sequential:\n%s\n%s",
					mode, o.Slots != nil, js, ja)
			}
			sa, sb := *seq.Extrapolated, *str.Extrapolated
			if sa != sb {
				t.Errorf("%s, shared=%t: streamed Stats differ from sequential:\n%+v\n%+v",
					mode, o.Slots != nil, sa, sb)
			}
		}
	}
}

// TestCachesOnlyWarmMode pins the reduced-warming operating point:
// caches-only warming (predictors retrain per interval via SampleWarmup
// instead of continuously) must still produce a usable estimate, and
// must be deterministic like the full mode.
func TestCachesOnlyWarmMode(t *testing.T) {
	p := mcfProg(t)
	cfg := sampleCfg()
	cfg.WarmMode = "caches"
	cfg.SampleWarmup = 512
	ex := exactStats(t, p, cfg)
	r, err := Run(p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.K < 2 {
		t.Fatalf("K = %d, want >= 2 intervals", r.K)
	}
	// Looser bound than full warming: predictors see only the per-interval
	// warmup window. Structural regressions (no warmup at all, broken
	// cache warming) land far outside 20%.
	errPct := 100 * math.Abs(r.IPC-ex.IPC()) / ex.IPC()
	if errPct > 20 {
		t.Errorf("caches-only sampled IPC %.4f vs exact %.4f: |err| %.1f%% > 20%%", r.IPC, ex.IPC(), errPct)
	}
	b, err := Run(p, cfg, Options{Slots: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(r)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("caches-only runs differ between worker-run and all-inline intervals")
	}
}

func TestMaxInstsTruncates(t *testing.T) {
	p := mcfProg(t)
	cfg := sampleCfg()
	cfg.MaxInsts = 20_000
	r, err := Run(p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalInsts != cfg.MaxInsts {
		t.Errorf("TotalInsts = %d, want MaxInsts %d", r.TotalInsts, cfg.MaxInsts)
	}
	if r.Extrapolated.HaltRetired {
		t.Error("HaltRetired = true on a truncated run")
	}
}

func TestTooShortProgram(t *testing.T) {
	p := prog.MustAssemble(`
        li r1, 3
loop:   subi r1, r1, 1
        br.gt r1, zero, loop
        halt`)
	if _, err := Run(p, sampleCfg(), Options{}); err == nil {
		t.Fatal("sampling a 8-instruction program succeeded; want too-short error")
	}
}

func TestSampleModeRequired(t *testing.T) {
	cfg := core.EnhancedDMPConfig()
	if _, err := Run(mcfProg(t), cfg, Options{}); err == nil {
		t.Fatal("Run without SampleMode succeeded; want error")
	}
}

// TestPerIntervalWarmupPinned pins what per-interval functional warm-up
// (Machine.FunctionalWarm) trains, at the caches-only CI gate's operating
// point and under full continuous warming. Both hashes cover the manifest
// and the extrapolated Stats. The golden tables have no warm-up rows, so
// a change to the warm-up policy — for instance replaying episode
// alternate paths during it — shows only here.
func TestPerIntervalWarmupPinned(t *testing.T) {
	want := map[string]string{
		"caches": "db390f90e7a9179e266cb70f4d8f539e032ed8902dff090d01dac93631bd153c",
		"full":   "baf8da60fb7afc45c72f371315065657fe4aed5bcb5a6700ccd809139f968795",
	}
	p := mcfProg(t)
	for _, mode := range []string{"caches", "full"} {
		cfg := sampleCfg()
		cfg.SamplePeriod, cfg.SampleInterval, cfg.SampleWarmup = 4000, 500, 512
		cfg.WarmMode = mode
		r, err := Run(p, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		man, _ := json.Marshal(r)
		st := *r.Extrapolated
		ext, _ := json.Marshal(st)
		h := sha256.New()
		h.Write(man)
		h.Write(ext)
		if got := hex.EncodeToString(h.Sum(nil)); got != want[mode] {
			t.Errorf("WarmMode %q: manifest+Stats hash %s, want %s\nmanifest: %s", mode, got, want[mode], man)
		}
	}
}
