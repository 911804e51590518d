package core

import (
	"testing"

	"dmp/internal/profile"
)

// warmedWarmer builds a warmer over a sizable random program and trains
// it far enough that every component holds real state.
func warmedWarmer(t testing.TB) *Warmer {
	t.Helper()
	p := mustProg(randomHammockProg(800))
	if _, err := profile.Run(p, profile.DefaultOptions()); err != nil {
		t.Fatalf("profile: %v", err)
	}
	w, err := NewWarmer(p, EnhancedDMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WarmTo(5000); err != nil {
		t.Fatal(err)
	}
	if w.Halted() {
		t.Fatal("program too short to warm")
	}
	return w
}

// TestWarmerSnapshotAllocs pins that Warmer.Snapshot is O(metadata): a
// bounded number of small header allocations, independent of how much
// trained state is resident. This is the CI guard for the copy-on-write
// checkpoint path — a regression to deep copies (per-set cache copies,
// predictor table copies, merge-entry copies) blows the budget by orders
// of magnitude. The budget covers one struct per component plus two COW
// table headers each, with headroom for runtime noise.
func TestWarmerSnapshotAllocs(t *testing.T) {
	w := warmedWarmer(t)
	allocs := testing.AllocsPerRun(100, func() {
		wsSink = w.Snapshot()
	})
	if allocs > 48 {
		t.Errorf("Warmer.Snapshot allocates %v objects; want O(metadata) (<= 48)", allocs)
	}
}

var wsSink *WarmState

func BenchmarkWarmerSnapshot(b *testing.B) {
	w := warmedWarmer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wsSink = w.Snapshot()
	}
}

// TestSnapshotIsolationUnderInterleavedTraining extends the snapshot
// isolation pin to the COW sharing chain the sampler actually creates:
// a snapshot taken from a continuously training warmer, replayed only
// after the warmer has trained through two MORE snapshots, must behave
// exactly like the same snapshot replayed immediately. This exercises
// repeated Clone generations over shared storage, not just one.
func TestSnapshotIsolationUnderInterleavedTraining(t *testing.T) {
	p := profiled(t, mustProg(randomHammockProg(800)))
	cfg := segCfg()

	w, err := NewWarmer(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WarmTo(2000); err != nil {
		t.Fatal(err)
	}
	ckA, wsA := w.Checkpoint(), w.Snapshot()

	replay := func(ws *WarmState) Stats {
		m, err := NewFromCheckpointWarm(p, cfg, ckA, ws)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.RunUntil(1500)
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

	// Reference: replay a private clone of snapshot A immediately.
	ref := replay(wsA.clone())

	// Keep training through two more snapshot generations, then replay
	// the original snapshot A.
	if err := w.WarmTo(4000); err != nil {
		t.Fatal(err)
	}
	_ = w.Snapshot()
	if err := w.WarmTo(6000); err != nil {
		t.Fatal(err)
	}
	_ = w.Snapshot()

	if got := replay(wsA); got != ref {
		t.Errorf("snapshot replayed after further training differs from immediate replay:\n%+v\n%+v", got, ref)
	}
}
