package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func ev(id, parent uint64, ts, dur int64, name string) spanEvent {
	e := spanEvent{Name: name, Cat: "t", Ph: "X", Ts: ts, Dur: dur}
	e.Args.ID, e.Args.Parent = id, parent
	return e
}

func TestSelfTime(t *testing.T) {
	// Children overlap each other and the last outlives its parent; self
	// time counts the parent's uncovered part once.
	evs := []spanEvent{
		ev(1, 0, 0, 100, "root"),
		ev(2, 1, 10, 20, "kid"),
		ev(3, 1, 20, 30, "kid"),
		ev(4, 1, 90, 30, "kid"),
		ev(5, 0, 200, 10, "other"),
	}
	rows := layerRows(evs)
	got := map[string]layerRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if r := got["root"]; r.Count != 1 || !near(r.TotalS, 100e-6) || !near(r.SelfS, 50e-6) {
		t.Errorf("root row %+v, want total 100us self 50us", r)
	}
	if r := got["kid"]; r.Count != 3 || !near(r.SelfS, 80e-6) || !near(r.MaxS, 30e-6) {
		t.Errorf("kid row %+v, want 3 spans, self 80us, longest 30us", r)
	}
	if rows[0].Name != "kid" {
		t.Errorf("rows not sorted by self time: first is %s", rows[0].Name)
	}

	tagRounds(evs, map[uint64]int{1: 3})
	for _, e := range evs {
		want := 3
		if e.Args.ID == 5 {
			want = 0
		}
		if e.Args.Round != want {
			t.Errorf("span %d tagged round %d, want %d", e.Args.ID, e.Args.Round, want)
		}
	}
}

func TestTracerWritesSpansAndLayers(t *testing.T) {
	tr := newTracer()
	setup := tr.begin("setup", 0)
	setup.Child("exp.Annotated", "exp").End()
	setup.End()
	round := tr.begin("round", 2)
	op := round.ChildAsync("core.Run", "core")
	op.Child("inner", "core").End()
	op.End()
	round.End()

	dir := t.TempDir()
	if err := tr.write(dir, "w", map[string]Metric{"x": {Value: 1, Unit: "s"}}); err != nil {
		t.Fatal(err)
	}
	spans := checkSpansFile(t, filepath.Join(dir, "spans.json"))
	if len(spans) != 5 {
		t.Errorf("%d spans, want 5", len(spans))
	}
	for _, e := range spans {
		want := 0
		if e.Name == "round" || e.Name == "core.Run" || e.Name == "inner" {
			want = 2
		}
		if e.Args.Round != want {
			t.Errorf("%s in round %d, want %d", e.Name, e.Args.Round, want)
		}
	}
	checkLayersFile(t, filepath.Join(dir, "layers.json"), "w")

	var none *tracer
	if sp := none.begin("round", 1); sp != nil {
		t.Error("nil tracer handed out a span")
	}
}

// checkSpansFile parses a spans.json and checks it is well formed: unique
// ids, parents that exist, complete events with non-negative times.
func checkSpansFile(t *testing.T, path string) []spanEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []spanEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[uint64]bool{}
	for _, e := range evs {
		if e.Args.ID == 0 || ids[e.Args.ID] {
			t.Errorf("%s: span %q has a zero or repeated id %d", path, e.Name, e.Args.ID)
		}
		ids[e.Args.ID] = true
		if e.Ph != "X" || e.Ts < 0 || e.Dur < 1 {
			t.Errorf("%s: span %q is malformed: %+v", path, e.Name, e)
		}
	}
	for _, e := range evs {
		if e.Args.Parent != 0 && !ids[e.Args.Parent] {
			t.Errorf("%s: span %q has a dangling parent %d", path, e.Name, e.Args.Parent)
		}
	}
	return evs
}

func checkLayersFile(t *testing.T, path, workload string) map[string]Metric {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		Workload string            `json:"workload"`
		Spans    int               `json:"spans"`
		Layers   []layerRow        `json:"layers"`
		Metrics  map[string]Metric `json:"metrics"`
	}
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if l.Workload != workload || l.Spans == 0 || len(l.Layers) == 0 || len(l.Metrics) == 0 {
		t.Errorf("%s: workload %q, %d spans, %d layers, %d metrics", path, l.Workload, l.Spans, len(l.Layers), len(l.Metrics))
	}
	for _, r := range l.Layers {
		if r.Count < 1 || r.SelfS < 0 || r.SelfS > r.TotalS+1e-9 {
			t.Errorf("%s: bad layer row %+v", path, r)
		}
	}
	return l.Metrics
}
