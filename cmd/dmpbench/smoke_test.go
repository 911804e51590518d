package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as dmpbench itself, so the smoke
// test's parent run can start its workloads as child processes.
const runMainEnv = "DMPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs the whole harness end to end at the smallest size:
// every workload in its own child process, untraced and then traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv(runMainEnv, "1")
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	traceDir := filepath.Join(dir, "trace")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "7", "-trace", traceDir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seed != 7 || len(rec.Workloads) != len(workloads) {
		t.Fatalf("record has seed %d and %d workloads", rec.Seed, len(rec.Workloads))
	}
	lines := stdout.String()
	for _, w := range workloads {
		oc, ok := rec.Workloads[w.name]
		if !ok {
			t.Errorf("%s: no outcome", w.name)
			continue
		}
		if !oc.Correct || oc.Failed != 0 || oc.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w.name, oc.Correct, oc.Attempted, oc.Failed)
		}
		// Every declared metric is emitted with its unit, printed as a
		// "workload metric value unit" line, and nothing else is.
		want := append(append([]metricDef(nil), endToEnd...), perLayer...)
		if len(oc.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(oc.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := oc.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w.name, d.Name, m, d.Unit)
			}
			if !strings.Contains(lines, w.name+" "+d.Name+" ") {
				t.Errorf("%s: no output line for %s", w.name, d.Name)
			}
		}
		for _, d := range endToEnd {
			if oc.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.Name, oc.Metrics[d.Name].Value)
			}
		}
		if !strings.Contains(lines, w.name+" ops ") {
			t.Errorf("%s: no ops/failed line", w.name)
		}
		checkSpansFile(t, filepath.Join(traceDir, w.name, "spans.json"))
		checkLayersFile(t, filepath.Join(traceDir, w.name, "layers.json"), w.name)
	}

	// Counts that must repeat exactly at this size.
	for _, c := range []struct {
		workload, metric string
		want             float64
	}{
		{"paper-suite", "sched.requests", 30},
		{"paper-suite", "sched.computed", 15},
		{"paper-suite", "sched.reused", 15},
		{"exact-long", "sched.requests", 0},
		{"sampled-long", "sched.requests", 0},
		{"serve-restart", "sched.cold.computed", 6},
		{"serve-restart", "sched.restart.store_hits", 6},
		{"serve-restart", "sched.restart.computed", 0},
		{"serve-restart", "sched.hot.hits", 100},
	} {
		if got := rec.Workloads[c.workload].Metrics[c.metric].Value; got != c.want {
			t.Errorf("%s %s = %v, want %v", c.workload, c.metric, got, c.want)
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
