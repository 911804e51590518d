package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dmp/internal/core"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/store"
	"dmp/internal/workload"
)

// tableMeta is the store key of bench's plain scale-1 diverge table.
func tableMeta(t *testing.T, bench string) store.AnnotationMeta {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	train := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: 1})
	return store.AnnotationMeta{TrainHash: train.Hash(), Profile: profile.DefaultOptions().Key()}
}

// tablePath is where the store in dir files bench's plain scale-1
// diverge table.
func tablePath(t *testing.T, dir, bench string) string {
	d := tableMeta(t, bench).Digest()
	return filepath.Join(dir, "annotations", d[:2], d+".json")
}

// editTable rewrites a stored table's payload through edit and re-seals
// the object with a valid checksum, so only the payload checks and lint
// can object to it.
func editTable(t *testing.T, path string, edit func(pl map[string]any)) {
	t.Helper()
	var env struct {
		Version int             `json:"version"`
		Sum     string          `json:"sum"`
		Payload json.RawMessage `json:"payload"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var pl map[string]any
	if err := json.Unmarshal(env.Payload, &pl); err != nil {
		t.Fatal(err)
	}
	edit(pl)
	if env.Payload, err = json.Marshal(pl); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(env.Payload)
	env.Sum = hex.EncodeToString(sum[:])
	if data, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, data, 0o644)
}

// firstRow is the first branch of a stored table's payload.
func firstRow(t *testing.T, pl map[string]any) map[string]any {
	rows, _ := pl["branches"].([]any)
	if len(rows) == 0 {
		t.Fatal("test setup: stored table is empty")
	}
	return rows[0].(map[string]any)
}

// runEnhanced simulates p under enhanced DMP, checker on, and returns
// its Stats without the host wall-clock time.
func runEnhanced(t *testing.T, p *prog.Program) core.Stats {
	t.Helper()
	cfg := core.EnhancedDMPConfig()
	cfg.CheckRetirement = true
	m, err := core.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return *st
}

// TestStoredTableReplacesProfile: with a warm annotation store, building
// a program runs no profile and simulates exactly as a fresh build.
func TestStoredTableReplacesProfile(t *testing.T) {
	SetAnnotationBacking(nil)
	fresh, err := buildAnnotated("mcf", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := runEnhanced(t, fresh)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetAnnotationBacking(st)
	defer SetAnnotationBacking(nil)
	for _, phase := range []struct {
		name     string
		profiles uint64
	}{{"cold", 1}, {"warm", 0}} {
		resetProgramCache()
		runs := mProfileRuns.Value()
		p, err := Annotated("mcf", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := mProfileRuns.Value() - runs; got != phase.profiles {
			t.Errorf("%s build ran %d profiles, want %d", phase.name, got, phase.profiles)
		}
		if p.Hash() != fresh.Hash() {
			t.Errorf("%s build: program hash differs from a fresh build", phase.name)
		}
		if got := runEnhanced(t, p); got != want {
			t.Errorf("%s build: Stats differ from a fresh build", phase.name)
		}
	}
}

// TestBadStoredTableReprofiles is the corruption and staleness matrix
// for stored diverge tables, end to end: every damaged, stale or
// lint-rejected object re-profiles, counts one reject, simulates exactly
// as a fresh build, and is healed by the write-back.
func TestBadStoredTableReprofiles(t *testing.T) {
	SetAnnotationBacking(nil)
	fresh, err := buildAnnotated("mcf", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := runEnhanced(t, fresh)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetAnnotationBacking(st)
	defer SetAnnotationBacking(nil)
	path := tablePath(t, dir, "mcf")
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T)
	}{
		{"truncated", func(t *testing.T) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o644)
		}},
		{"checksum", func(t *testing.T) {
			data, _ := os.ReadFile(path)
			data[len(data)-4] ^= 1 // inside the payload's closing brackets
			os.WriteFile(path, data, 0o644)
		}},
		{"version-skew", func(t *testing.T) {
			data, _ := os.ReadFile(path)
			var env map[string]any
			json.Unmarshal(data, &env)
			env["version"] = store.FormatVersion + 1
			data, _ = json.Marshal(env)
			os.WriteFile(path, data, 0o644)
		}},
		{"unknown-field", func(t *testing.T) {
			editTable(t, path, func(pl map[string]any) { firstRow(t, pl)["not_a_field"] = 1 })
		}},
		{"profile-version-skew", func(t *testing.T) {
			// A table an older profiler wrote, filed under today's key.
			editTable(t, path, func(pl map[string]any) {
				pl["meta"].(map[string]any)["profile"] = strings.Replace(profile.DefaultOptions().Key(),
					fmt.Sprintf("profile/v%d ", profile.Version), fmt.Sprintf("profile/v%d ", profile.Version-1), 1)
			})
		}},
		{"misfiled", func(t *testing.T) {
			// A valid table, but another program's (gcc at scale 1).
			src := tablePath(t, dir, "gcc")
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(path, data, 0o644)
		}},
		{"lint-cfm-past-code-end", func(t *testing.T) {
			editTable(t, path, func(pl map[string]any) { firstRow(t, pl)["cfms"] = []uint64{uint64(len(fresh.Code)) + 5} })
		}},
		{"lint-wrong-class", func(t *testing.T) {
			editTable(t, path, func(pl map[string]any) {
				row := firstRow(t, pl)
				row["class"] = 3 - row["class"].(float64) // simple-hammock <-> complex-diverge
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Fill the store: mcf's table, and gcc's for the misfiled case.
			resetProgramCache()
			for _, b := range []string{"mcf", "gcc"} {
				if _, err := Annotated(b, 1); err != nil {
					t.Fatal(err)
				}
			}
			tc.damage(t)
			resetProgramCache()
			runs, rejects := mProfileRuns.Value(), mAnnotationRejects.Value()
			p, err := Annotated("mcf", 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := mProfileRuns.Value() - runs; got != 1 {
				t.Errorf("ran %d profiles, want 1", got)
			}
			if got := mAnnotationRejects.Value() - rejects; got != 1 {
				t.Errorf("counted %d rejects, want 1", got)
			}
			if got := runEnhanced(t, p); got != want {
				t.Error("Stats differ from a fresh build")
			}
			m := tableMeta(t, "mcf")
			if _, err := st.Annotations(m.TrainHash, m.Profile); err != nil {
				t.Errorf("the re-profiled table was not written back: %v", err)
			}
		})
	}
}

// TestConcurrentBuildsShareStoredTables builds several programs at once,
// cold and then from the stored tables, as a daemon's concurrent
// requests do; under -race it checks the backing's install and the
// store's reads and writes.
func TestConcurrentBuildsShareStoredTables(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetAnnotationBacking(st)
	defer SetAnnotationBacking(nil)
	benches := []string{"mcf", "twolf", "gzip"}
	build := func() []string {
		resetProgramCache()
		hashes := make([]string, 2*len(benches))
		var wg sync.WaitGroup
		for i, b := range benches {
			for j, get := range []func(string, int) (*prog.Program, error){Annotated, AnnotatedLoops} {
				wg.Add(1)
				go func(k int, b string, get func(string, int) (*prog.Program, error)) {
					defer wg.Done()
					p, err := get(b, 1)
					if err != nil {
						t.Error(err)
						return
					}
					hashes[k] = p.Hash()
				}(2*i+j, b, get)
			}
		}
		wg.Wait()
		return hashes
	}
	runs := mProfileRuns.Value()
	cold := build()
	if got := mProfileRuns.Value() - runs; got != uint64(len(cold)) {
		t.Fatalf("cold builds ran %d profiles, want %d", got, len(cold))
	}
	runs = mProfileRuns.Value()
	warm := build()
	if got := mProfileRuns.Value() - runs; got != 0 {
		t.Errorf("warm builds ran %d profiles, want 0", got)
	}
	for k := range cold {
		if warm[k] != cold[k] {
			t.Errorf("program %d: hash from the stored table differs from the profiled one", k)
		}
	}
}
