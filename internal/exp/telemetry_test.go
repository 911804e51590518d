package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"dmp/internal/telemetry"
)

// TestTelemetryDoesNotPerturb pins the telemetry contract: re-running
// the same experiments with a fully attached telemetry set — spans,
// feed, metrics, artifact files — yields byte-identical tables.
// Table3 exercises the cached exact-simulation path (simcache events,
// per-simulation spans); Sampling exercises the sampled pipeline
// (stage spans, snapshot and interval-job emission from the consumer
// loop). ResetResults between runs forces the attached pass to
// actually re-simulate rather than replay the cache.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	o := smallOpts()
	t3, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Sampling(o)
	if err != nil {
		t.Fatal(err)
	}

	ResetResults()
	set, err := telemetry.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Enable(set)
	defer telemetry.Enable(nil)
	root := set.Tracer().Begin("test", "exp")
	o2 := o
	o2.Span = root
	t3b, err := Table3(o2)
	if err != nil {
		t.Fatal(err)
	}
	smb, err := Sampling(o2)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if _, err := set.Close(); err != nil {
		t.Fatal(err)
	}

	if t3.String() != t3b.String() {
		t.Errorf("Table3 changed under telemetry:\nwithout:\n%s\nwith:\n%s", t3, t3b)
	}
	if sm.String() != smb.String() {
		t.Errorf("Sampling table changed under telemetry:\nwithout:\n%s\nwith:\n%s", sm, smb)
	}
}

// TestSampledRunsGetOwnLanes pins the span contract of the sampling
// experiment: its sampled runs overlap, so each gets its own async lane
// under the experiment span, and a run's sequential stage spans
// (prefix, warm, extrapolate) nest on that lane, never on the
// experiment's.
func TestSampledRunsGetOwnLanes(t *testing.T) {
	ResetResults()
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	root := tr.Begin("sampling", "exp")
	o := smallOpts()
	o.Span = root
	if _, _, err := SamplingReport(o); err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string `json:"name"`
		TID  uint64 `json:"tid"`
		Args struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
		} `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	lane := map[uint64]uint64{} // span id -> tid
	for _, e := range evs {
		lane[e.Args.ID] = e.TID
	}
	rootLane := lane[root.ID()]
	runs := map[uint64]bool{}
	for _, e := range evs {
		switch e.Name {
		case "prefix", "warm", "extrapolate":
			if e.TID == rootLane {
				t.Errorf("%s span on the experiment span's lane", e.Name)
			}
		}
		if e.Name != "prefix" {
			continue
		}
		p := e.Args.Parent
		if p == root.ID() || runs[p] {
			t.Errorf("prefix span's parent %d is the experiment span or shared with another run", p)
		}
		if lane[p] != p || lane[p] == rootLane {
			t.Errorf("prefix span's parent %d is not on a lane of its own (tid %d)", p, lane[p])
		}
		runs[p] = true
	}
	if len(runs) != len(o.Benchmarks) {
		t.Errorf("%d sampled-run lanes, want one per benchmark (%d)", len(runs), len(o.Benchmarks))
	}
}
