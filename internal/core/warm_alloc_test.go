package core

import (
	"testing"

	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/workload"
)

// annotatedRef builds w's reference input at scale carrying the diverge
// annotations profiled on its training input, as the experiments run it.
func annotatedRef(t testing.TB, w *workload.Workload, scale int) *prog.Program {
	t.Helper()
	train := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: scale})
	if _, err := profile.Run(train, profile.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ref := w.Build(workload.BuildConfig{Seed: workload.RefSeed, Scale: scale})
	for pc, d := range train.Diverge {
		ref.MarkDiverge(pc, d)
	}
	return ref
}

// warmWindow is the instruction window TestWarmToAllocs measures.
const warmWindow = 50_000

// TestWarmToAllocs pins that functional warming allocates nothing in
// steady state: once a warm-up window has touched the program's memory
// pages, predictor rows and cache sets, a further WarmTo window —
// emulator steps, predictor training, wrong-path and episode excursions
// — makes zero heap allocations. mcf runs at scale 3 because at scale 1
// the whole program is shorter than the warm-up plus one window.
func TestWarmToAllocs(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	wm, err := NewWarmer(annotatedRef(t, w, 3), EnhancedDMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	// AllocsPerRun's first, unmeasured call is the warm-up window.
	allocs := testing.AllocsPerRun(1, func() {
		if err := wm.WarmTo(wm.Count() + warmWindow); err != nil {
			werr = err
		}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if wm.Halted() || wm.Count() != 2*warmWindow {
		t.Fatalf("warmer at %d instructions (halted %v): program too short for two windows", wm.Count(), wm.Halted())
	}
	if allocs != 0 {
		t.Errorf("a %d-instruction WarmTo window allocates %v objects; want 0", warmWindow, allocs)
	}
}
