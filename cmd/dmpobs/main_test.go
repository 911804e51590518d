package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmp/internal/sample"
)

// goodManifest builds a minimal internally consistent manifest.
func goodManifest() sample.Result {
	ivs := []sample.Interval{
		{Index: 0, Start: 3000, RampRetired: 512, Retired: 500, Cycles: 1000, IPC: 0.5},
		{Index: 1, Start: 9000, RampRetired: 512, Retired: 500, Cycles: 500, IPC: 1.0},
	}
	return sample.Result{
		TotalInsts:      20000,
		Period:          6000,
		IntervalLen:     500,
		Ramp:            512,
		PrefixRetired:   2048,
		PrefixCycles:    4000,
		K:               2,
		DetailedRetired: 2048 + 1000,
		DetailedCycles:  4000 + 1500,
		IPC:             0.7,
		IPCMean:         0.75,
		CI95:            0.1,
		Intervals:       ivs,
	}
}

// TestCheckManifest pins the -manifest contract: validateManifest decodes
// the file dmpsim -sample-manifest writes and rejects every accounting
// violation sample.Result.Check knows.
func TestCheckManifest(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*sample.Result)
		wantErr string
	}{
		{name: "consistent", mutate: func(m *sample.Result) {}},
		{name: "k-mismatch", mutate: func(m *sample.Result) { m.K = 3 }, wantErr: "intervals listed"},
		{name: "no-intervals", mutate: func(m *sample.Result) { m.K = 0; m.Intervals = nil }, wantErr: "no intervals"},
		{name: "index-order", mutate: func(m *sample.Result) { m.Intervals[1].Index = 5 }, wantErr: "out of order"},
		{name: "start-order", mutate: func(m *sample.Result) { m.Intervals[1].Start = 10 }, wantErr: "before previous"},
		{name: "empty-interval", mutate: func(m *sample.Result) { m.Intervals[0].Cycles = 0 }, wantErr: "empty measurement"},
		{name: "ipc-arith", mutate: func(m *sample.Result) { m.Intervals[1].IPC = 0.9 }, wantErr: "retired/cycles"},
		{name: "retired-sum", mutate: func(m *sample.Result) { m.DetailedRetired++ }, wantErr: "detailed_retired"},
		{name: "cycle-sum", mutate: func(m *sample.Result) { m.DetailedCycles++ }, wantErr: "detailed_cycles"},
		{name: "detailed-exceeds-total", mutate: func(m *sample.Result) { m.TotalInsts = 100 }, wantErr: "exceeds total_insts"},
		{name: "bad-estimate", mutate: func(m *sample.Result) { m.IPC = 0 }, wantErr: "implausible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := goodManifest()
			tc.mutate(&m)
			path := filepath.Join(t.TempDir(), "manifest.json")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WriteManifest(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			err = validateManifest(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckTrace pins the -validate contract: every event, not just the
// first, must carry the fields Perfetto needs.
func TestCheckTrace(t *testing.T) {
	const ev = `{"name":"u","cat":"uop","ph":"X","ts":1,"dur":1,"pid":0,"tid":1,"args":{}}`
	cases := []struct {
		name    string
		trace   string
		wantN   int
		wantErr string
	}{
		{name: "well-formed", trace: "[" + ev + ",\n" + ev + "]", wantN: 2},
		{name: "not-json", trace: "[" + ev + ",", wantErr: "invalid Chrome trace JSON"},
		{name: "empty", trace: "[]", wantErr: "trace is empty"},
		{name: "first-missing-ph", trace: `[{"name":"u","ts":1,"pid":0,"tid":1}]`, wantErr: `event 0 missing "ph"`},
		{name: "later-missing-tid", trace: "[" + ev + "," + ev + `,{"name":"u","ph":"X","ts":3,"pid":0}]`, wantErr: `event 2 missing "tid"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := checkTrace([]byte(tc.trace))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || n != tc.wantN {
				t.Fatalf("got %d events, err %v; want %d, nil", n, err, tc.wantN)
			}
		})
	}
}
