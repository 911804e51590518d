package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dmp/internal/exp"
	"dmp/internal/sched"
	"dmp/internal/store"
	"dmp/internal/telemetry"
)

// counterValue reads one counter of the process metrics registry.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	for _, c := range telemetry.DefaultRegistry().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s is not registered", name)
	return 0
}

// TestRestartNeverProfiles pins the warm restart: a daemon restarted
// over a store that holds its programs' diverge tables answers without
// running the training profile, including for a mode it must simulate,
// and a store written without annotation objects profiles each program
// once and still serves every stored result.
func TestRestartNeverProfiles(t *testing.T) {
	dir := t.TempDir()
	runs := map[string]RunRequest{
		"baseline": {Bench: "mcf", Mode: "baseline", Scale: 1},
		"enhanced": {Bench: "mcf", Mode: "enhanced", Scale: 1},
		"loops":    {Bench: "mcf", Mode: "enhanced", Scale: 1, Loops: true},
		"dualpath": {Bench: "mcf", Mode: "dualpath", Scale: 1},
	}
	// daemon serves the named runs, in order, from a new process view
	// of the store (program and result caches dropped), returning each
	// answer and the number of profiles the daemon ran.
	daemon := func(client string, names ...string) (map[string]RunStatus, uint64) {
		t.Helper()
		exp.Reset()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Store: st, Admit: sched.AdmitOptions{MaxConcurrent: 2}})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Close()
		profiles := counterValue(t, "dmp_exp_profile_runs_total")
		out := map[string]RunStatus{}
		for _, name := range names {
			resp, run := postJSON(t, ts.URL+"/v1/runs?wait=1", client, runs[name])
			if resp.StatusCode != http.StatusOK || run.State != "done" {
				t.Fatalf("%s: status %d state %q error %q", name, resp.StatusCode, run.State, run.Error)
			}
			out[name] = run
		}
		return out, counterValue(t, "dmp_exp_profile_runs_total") - profiles
	}
	sameStats := func(phase string, got, want map[string]RunStatus) {
		t.Helper()
		for name, w := range want {
			if g, ok := got[name]; ok && *g.Stats != *w.Stats {
				t.Errorf("%s: %s Stats differ from the cold daemon's", phase, name)
			}
		}
	}

	cold, profiles := daemon("cold", "baseline", "enhanced", "loops")
	if profiles != 2 {
		t.Fatalf("cold daemon ran %d profiles, want 2 (plain and loop-marked)", profiles)
	}

	// dualpath first, so the restarted daemon builds its program for a
	// simulation rather than for a store key.
	warm, profiles := daemon("warm", "dualpath", "baseline", "enhanced", "loops")
	if profiles != 0 {
		t.Errorf("restarted daemon ran %d profiles, want 0", profiles)
	}
	if got := warm["dualpath"].Counts.Simulated; got != 1 {
		t.Errorf("dualpath on restart: %d simulations, want 1", got)
	}
	for name := range cold {
		if got := warm[name].Counts; got.Simulated != 0 || got.StoreHits != 1 {
			t.Errorf("%s on restart: counts %+v, want 0 simulated and 1 store hit", name, *got)
		}
	}
	sameStats("restart", warm, cold)

	// The parent layout: results only. Each program profiles once; every
	// result is still a store read.
	if err := os.RemoveAll(filepath.Join(dir, "annotations")); err != nil {
		t.Fatal(err)
	}
	old, profiles := daemon("old-store", "dualpath", "baseline", "enhanced", "loops")
	if profiles != 2 {
		t.Errorf("store without annotation objects: %d profiles, want 2", profiles)
	}
	for name, run := range old {
		if run.Counts.Simulated != 0 {
			t.Errorf("%s over a store without annotation objects: %d simulations, want 0", name, run.Counts.Simulated)
		}
	}
	sameStats("results-only store", old, warm)
}

// TestOversizeBodyRejected: a body over the limit answers 413 without
// harming the daemon, which serves the next request.
func TestOversizeBodyRejected(t *testing.T) {
	exp.ResetResults()
	srv := New(Config{Admit: sched.AdmitOptions{MaxConcurrent: 2}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	huge := make([]byte, maxBodyBytes+1)
	for i := range huge {
		huge[i] = 'a'
	}
	for _, path := range []string{"/v1/runs", "/v1/experiments"} {
		resp, _ := postJSON(t, ts.URL+path+"?wait=1", "big", map[string]any{"bench": string(huge)})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	resp, run := postJSON(t, ts.URL+"/v1/runs?wait=1", "big", map[string]any{"bench": "mcf", "scale": 1})
	if resp.StatusCode != http.StatusOK || run.State != "done" {
		t.Fatalf("request after the oversize one: status %d state %q", resp.StatusCode, run.State)
	}
}
