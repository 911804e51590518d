package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmp/internal/core"
)

// TestSetCFMSource pins the -cfm-source / -merge-table flag contract:
// the three sources are accepted and applied, anything else (and any
// inconsistent table size) is a usage error that leaves the config
// untouched.
func TestSetCFMSource(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		table   int
		wantErr string
		wantSrc string
		wantTbl int
	}{
		{name: "annotated", src: "annotated", wantSrc: "annotated"},
		{name: "dynamic", src: "dynamic", wantSrc: "dynamic"},
		{name: "hybrid", src: "hybrid", wantSrc: "hybrid"},
		{name: "dynamic-sized", src: "dynamic", table: 128, wantSrc: "dynamic", wantTbl: 128},
		{name: "unknown", src: "oracle", wantErr: "invalid -cfm-source"},
		{name: "empty", src: "", wantErr: "invalid -cfm-source"},
		{name: "negative-table", src: "dynamic", table: -1, wantErr: "invalid -merge-table"},
		{name: "table-without-predictor", src: "annotated", table: 64, wantErr: "-merge-table needs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.EnhancedDMPConfig()
			err := setCFMSource(&cfg, tc.src, tc.table)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				if cfg != core.EnhancedDMPConfig() {
					t.Error("rejected flags mutated the config")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if cfg.CFMSource != tc.wantSrc || cfg.MergeTableSize != tc.wantTbl {
				t.Errorf("got source %q table %d, want %q %d",
					cfg.CFMSource, cfg.MergeTableSize, tc.wantSrc, tc.wantTbl)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("applied config fails Validate: %v", err)
			}
		})
	}
}

// TestMergeStatsLine pins that the -merge-stats summary carries every
// predictor counter.
func TestMergeStatsLine(t *testing.T) {
	s := &core.Stats{MergeHits: 1, MergeMisses: 2, MergeTrainings: 3,
		MergeEvictions: 4, DynCFMEpisodes: 5, MergeMispredicts: 6}
	line := mergeStatsLine(s)
	for _, want := range []string{"1 hits", "2 misses", "3 trainings", "4 evictions", "5 learned-CFM", "6 merge mispredicts"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary missing %q: %s", want, line)
		}
	}
}

// TestSetSampling pins the -sample* flag contract: the knobs and the
// manifest path are usage errors without -sample, the interval must fit
// inside the period, and valid flags land on the config.
func TestSetSampling(t *testing.T) {
	cases := []struct {
		name                     string
		on                       bool
		period, interval, warmup uint64
		warmMode, manifest       string
		wantErr                  string
	}{
		{name: "off-default", on: false},
		{name: "on-default", on: true},
		{name: "on-custom", on: true, period: 4000, interval: 500, warmup: 100},
		{name: "on-caches", on: true, warmup: 512, warmMode: "caches"},
		{name: "period-without-sample", period: 4000, wantErr: "need -sample"},
		{name: "interval-without-sample", interval: 500, wantErr: "need -sample"},
		{name: "warmup-without-sample", warmup: 10, wantErr: "need -sample"},
		{name: "warm-mode-without-sample", warmMode: "caches", wantErr: "need -sample"},
		{name: "manifest-without-sample", manifest: "m.json", wantErr: "need -sample"},
		{name: "interval-ge-period", on: true, period: 500, interval: 500, wantErr: "must be smaller"},
		{name: "unknown-warm-mode", on: true, warmMode: "none", wantErr: "warm mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.EnhancedDMPConfig()
			err := setSampling(&cfg, tc.on, tc.period, tc.interval, tc.warmup, tc.warmMode, tc.manifest)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				if cfg != core.EnhancedDMPConfig() {
					t.Error("rejected flags mutated the config")
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if cfg.SampleMode != tc.on {
				t.Errorf("SampleMode = %v, want %v", cfg.SampleMode, tc.on)
			}
			if cfg.SamplePeriod != tc.period || cfg.SampleInterval != tc.interval || cfg.SampleWarmup != tc.warmup {
				t.Errorf("got %d/%d/%d, want %d/%d/%d", cfg.SamplePeriod,
					cfg.SampleInterval, cfg.SampleWarmup, tc.period, tc.interval, tc.warmup)
			}
			if cfg.WarmMode != tc.warmMode {
				t.Errorf("WarmMode = %q, want %q", cfg.WarmMode, tc.warmMode)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("applied config fails Validate: %v", err)
			}
		})
	}
}

// TestErrorExitFinishesObservability pins that a run failing after the
// observability attach still finishes it: the CPU profile is complete
// (non-empty) and the telemetry artifacts parse, ending in run-end. A
// flag conflict, by contrast, is rejected before anything starts.
func TestErrorExitFinishesObservability(t *testing.T) {
	dir := t.TempDir()
	cpu, tel := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "tel")
	err := run([]string{"-bench", "mcf", "-scale", "1", "-mode", "enhanced", "-q",
		"-pipetrace", filepath.Join(dir, "missing", "x.json"), "-cpuprofile", cpu, "-telemetry-out", tel})
	if err == nil || !strings.Contains(err.Error(), "x.json") {
		t.Fatalf("err = %v, want the pipetrace create failure", err)
	}
	fi, err := os.Stat(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("CPU profile is empty: the profiler was never stopped")
	}
	data, err := os.ReadFile(filepath.Join(tel, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("spans.json: %v, %d spans:\n%s", err, len(spans), data)
	}
	f, err := os.Open(filepath.Join(tel, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var ev struct{ Kind string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("events.jsonl line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) < 2 || kinds[0] != "run-start" || !strings.Contains(strings.Join(kinds, " "), "run-end") {
		t.Errorf("event kinds %v: want run-start ... run-end", kinds)
	}

	cpu2, tel2 := filepath.Join(dir, "cpu2.prof"), filepath.Join(dir, "tel2")
	err = run([]string{"-bench", "mcf", "-scale", "1", "-mode", "enhanced", "-sample",
		"-pipetrace", filepath.Join(dir, "x.json"), "-cpuprofile", cpu2, "-telemetry-out", tel2})
	if err == nil || !strings.Contains(err.Error(), "not available with -sample") {
		t.Fatalf("err = %v, want the -sample conflict", err)
	}
	for _, p := range []string{cpu2, tel2, filepath.Join(dir, "x.json")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists after a rejected flag conflict (stat err %v)", p, err)
		}
	}
}

// TestLoopsFlagRunsLoopDiverge pins that -loops is loop diverge end to
// end: the machine predicates loop branches and runs the program with
// them marked. gzip's loop branches add episodes at scale 1, as in the
// loopdiverge experiment.
func TestLoopsFlagRunsLoopDiverge(t *testing.T) {
	episodes := func(extra ...string) string {
		t.Helper()
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		stdout := os.Stdout
		os.Stdout = out
		err = run(append([]string{"-bench", "gzip", "-scale", "1", "-mode", "enhanced", "-q"}, extra...))
		os.Stdout = stdout
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "dpred" && f[1] == "episodes" {
				return f[2]
			}
		}
		t.Fatalf("no episodes line in:\n%s", data)
		return ""
	}
	if got := episodes(); got != "809" {
		t.Errorf("enhanced: %s episodes, want 809", got)
	}
	if got := episodes("-loops"); got != "1167" {
		t.Errorf("enhanced -loops: %s episodes, want 1167", got)
	}
}
