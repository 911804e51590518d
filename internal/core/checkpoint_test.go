package core

import (
	"testing"
)

// segCfg is the enhanced DMP machine with the golden-model checker on:
// every retired instruction in these tests is validated against the
// functional emulator, so a stitched or transplanted run that diverges
// architecturally fails loudly instead of producing plausible stats.
func segCfg() Config {
	cfg := EnhancedDMPConfig()
	cfg.CheckRetirement = true
	return cfg
}

// TestRunUntilSegmentsMatchRun pins the measurement primitive under the
// sampler: driving a machine with a sequence of RunUntil targets and
// Finish produces exactly the Stats of an uninterrupted Run (modulo wall
// clock). Without this, interval Stats.Delta windows would not compose.
func TestRunUntilSegmentsMatchRun(t *testing.T) {
	p := profiled(t, mustProg(randomHammockProg(800)))

	m, err := New(p, segCfg())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, m, whole)

	m2, err := New(p, segCfg())
	if err != nil {
		t.Fatal(err)
	}
	var seg *Stats
	for _, target := range []uint64{1, 500, 501, 2000, 7000, 1 << 40} {
		if seg, err = m2.RunUntil(target); err != nil {
			t.Fatalf("RunUntil(%d): %v", target, err)
		}
	}
	if !seg.HaltRetired {
		// Targets beyond the program end: the last RunUntil runs to halt.
		t.Fatal("segmented run did not reach halt")
	}
	if seg, err = m2.Finish(); err != nil {
		t.Fatal(err)
	}
	checkStats(t, m2, seg)
	a, b := *whole, *seg
	if a != b {
		t.Errorf("segmented stats differ from whole-run stats:\n%+v\n%+v", a, b)
	}
}

// TestCheckpointWarmStitchedRun pins the sampler's seeding path: warm a
// program functionally to a midpoint, transplant the checkpoint plus the
// warmed state into a fresh machine, and run the remainder under the
// golden-model checker. The checker validates every retired instruction
// against an emulator re-seeded at the same checkpoint.
func TestCheckpointWarmStitchedRun(t *testing.T) {
	p := profiled(t, mustProg(randomHammockProg(800)))
	cfg := segCfg()

	w, err := NewWarmer(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WarmTo(3000); err != nil {
		t.Fatal(err)
	}
	if w.Halted() {
		t.Fatal("program too short for midpoint checkpoint")
	}
	m, err := NewFromCheckpointWarm(p, cfg, w.Checkpoint(), w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("stitched run failed retirement checking: %v", err)
	}
	checkStats(t, m, st)
	if !st.HaltRetired {
		t.Fatal("stitched run did not retire HALT")
	}

	// The stitched remainder plus the warmed prefix covers the program:
	// architectural instruction count must match an exact run's.
	exact, err := New(p, segCfg())
	if err != nil {
		t.Fatal(err)
	}
	es, err := exact.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, exact, es)
	if got, want := w.Count()+st.RetiredInsts, es.RetiredInsts; got != want {
		t.Errorf("warmed %d + stitched %d = %d retired, exact run %d",
			w.Count(), st.RetiredInsts, got, want)
	}
}

// TestSnapshotIsolatesWarmState pins that Warmer.Snapshot is a deep copy:
// a machine seeded from a snapshot must behave identically whether or not
// the warmer kept training afterwards. The sampler relies on this — it
// snapshots at each checkpoint and keeps warming to the next.
func TestSnapshotIsolatesWarmState(t *testing.T) {
	p := profiled(t, mustProg(randomHammockProg(800)))
	cfg := segCfg()

	run := func(keepWarming bool) Stats {
		w, err := NewWarmer(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WarmTo(3000); err != nil {
			t.Fatal(err)
		}
		ck, ws := w.Checkpoint(), w.Snapshot()
		if keepWarming {
			if err := w.WarmTo(6000); err != nil {
				t.Fatal(err)
			}
		}
		m, err := NewFromCheckpointWarm(p, cfg, ck, ws)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.RunUntil(2000)
		if err != nil {
			t.Fatal(err)
		}
		snap := *st
		if _, err := m.Finish(); err != nil {
			t.Fatal(err)
		}
		checkStats(t, m, &m.Stats)
		return snap
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("continued warming leaked into an earlier snapshot:\n%+v\n%+v", a, b)
	}
}

// TestFunctionalWarmAdvancesTransplant pins the per-interval warmup path:
// FunctionalWarm after a warm transplant advances architectural state in
// place, and the subsequent detailed run still passes the checker.
func TestFunctionalWarmAdvancesTransplant(t *testing.T) {
	p := profiled(t, mustProg(randomHammockProg(800)))
	cfg := segCfg()

	w, err := NewWarmer(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WarmTo(2000); err != nil {
		t.Fatal(err)
	}
	m, err := NewFromCheckpointWarm(p, cfg, w.Checkpoint(), w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := m.FunctionalWarm(500)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 500 {
		t.Fatalf("warmed %d instructions, want 500", warmed)
	}
	st, err := m.RunUntil(1000)
	if err != nil {
		t.Fatalf("post-warm run failed retirement checking: %v", err)
	}
	if st.RetiredInsts < 1000 {
		t.Errorf("retired %d, want >= 1000", st.RetiredInsts)
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	checkStats(t, m, &m.Stats)
}
