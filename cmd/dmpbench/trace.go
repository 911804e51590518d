package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dmp/internal/telemetry"
)

// tracer records the spans of a traced run. The benchmark opens a span
// around each layer call it makes; telemetry.Tracer keeps them in memory
// and they are written once, when the run ends. A nil *tracer, like the
// nil *telemetry.Span it hands out, records nothing.
type tracer struct {
	buf bytes.Buffer
	t   *telemetry.Tracer

	mu     sync.Mutex
	rounds map[uint64]int // root span id -> round number
}

func newTracer() *tracer {
	tr := &tracer{rounds: map[uint64]int{}}
	tr.t = telemetry.NewTracer(&tr.buf)
	return tr
}

// begin starts a root span. A round > 0 tags the span and everything
// under it with that round number in spans.json.
func (tr *tracer) begin(name string, round int) *telemetry.Span {
	if tr == nil {
		return nil
	}
	sp := tr.t.Begin(name, "bench")
	if round > 0 {
		tr.mu.Lock()
		tr.rounds[sp.ID()] = round
		tr.mu.Unlock()
	}
	return sp
}

// spanEvent is one Chrome trace_event record as telemetry.Tracer writes
// it, with the round number added.
type spanEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  uint64 `json:"tid"`
	Args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Round  int    `json:"round"`
	} `json:"args"`
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Cat    string  `json:"cat"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	MaxS   float64 `json:"max_s"` // the longest single span
}

// write finishes the trace and writes dir/spans.json (Perfetto-loadable,
// each span with its parent and round) and dir/layers.json (time per
// span name: total, self and longest, beside the run's per-layer
// metrics).
func (tr *tracer) write(dir, workload string, metrics map[string]Metric) error {
	if err := tr.t.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var evs []spanEvent
	if err := json.Unmarshal(tr.buf.Bytes(), &evs); err != nil {
		return fmt.Errorf("trace: parse spans: %w", err)
	}
	tagRounds(evs, tr.rounds)
	rows := layerRows(evs)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), evs); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), struct {
		Workload string            `json:"workload"`
		Spans    int               `json:"spans"`
		Layers   []layerRow        `json:"layers"`
		Metrics  map[string]Metric `json:"metrics"`
	}{workload, len(evs), rows, metrics})
}

// tagRounds gives every span the round number of its root span.
func tagRounds(evs []spanEvent, rounds map[uint64]int) {
	parent := make(map[uint64]uint64, len(evs))
	for _, e := range evs {
		parent[e.Args.ID] = e.Args.Parent
	}
	for i := range evs {
		id := evs[i].Args.ID
		for parent[id] != 0 {
			id = parent[id]
		}
		evs[i].Args.Round = rounds[id]
	}
}

// layerRows sums span time per (category, name). A span's self time is
// its duration minus the part of it its children's spans cover.
func layerRows(evs []spanEvent) []layerRow {
	children := map[uint64][]spanEvent{}
	for _, e := range evs {
		if e.Args.Parent != 0 {
			children[e.Args.Parent] = append(children[e.Args.Parent], e)
		}
	}
	byKey := map[[2]string]*layerRow{}
	for _, e := range evs {
		k := [2]string{e.Cat, e.Name}
		row := byKey[k]
		if row == nil {
			row = &layerRow{Cat: e.Cat, Name: e.Name}
			byKey[k] = row
		}
		row.Count++
		row.TotalS += float64(e.Dur) / 1e6
		row.MaxS = max(row.MaxS, float64(e.Dur)/1e6)
		row.SelfS += float64(e.Dur-covered(e, children[e.Args.ID])) / 1e6
	}
	rows := make([]layerRow, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Cat+rows[i].Name < rows[j].Cat+rows[j].Name
	})
	return rows
}

// covered returns how much of e's interval the union of kids' intervals
// covers, in microseconds.
func covered(e spanEvent, kids []spanEvent) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Ts, e.Ts), min(k.Ts+k.Dur, e.Ts+e.Dur)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
