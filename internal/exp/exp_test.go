package exp

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"dmp/internal/core"
)

// smallOpts keeps experiment tests fast: two contrasting benchmarks at
// scale 1 (one diverge-heavy, one predictable).
func smallOpts() Options {
	return Options{Scale: 1, Benchmarks: []string{"mcf", "perlbmk"}}
}

func TestAnnotatedTransfersMarks(t *testing.T) {
	p, err := Annotated("mcf", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DivergePCs()) == 0 {
		t.Fatal("no diverge marks transferred to the reference program")
	}
}

func TestTable2Static(t *testing.T) {
	tb, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"perceptron", "JRS", "300-cycle", "512-entry ROB"} {
		if !strings.Contains(s, want) {
			t.Errorf("table2 missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	tb, err := Table3(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// mcf must have a lower IPC than perlbmk (memory bound + mispredicts).
	mcfIPC := atof(t, tb.Rows[0][1])
	perlIPC := atof(t, tb.Rows[1][1])
	if mcfIPC >= perlIPC {
		t.Errorf("mcf IPC %.2f >= perlbmk IPC %.2f", mcfIPC, perlIPC)
	}
}

func TestFigure1Shape(t *testing.T) {
	tb, err := Figure1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// mcf (mispredict-heavy) fetches far more wrong-path instructions
	// than perlbmk.
	mcfTotal := atof(t, tb.Rows[0][3])
	perlTotal := atof(t, tb.Rows[1][3])
	if mcfTotal <= perlTotal {
		t.Errorf("wrong-path%%: mcf %.1f <= perlbmk %.1f", mcfTotal, perlTotal)
	}
	if mcfTotal < 10 {
		t.Errorf("mcf wrong-path%% = %.1f, suspiciously low", mcfTotal)
	}
}

func TestFigure6Shape(t *testing.T) {
	tb, err := Figure6(Options{Scale: 1, Benchmarks: []string{"mcf", "gcc"}})
	if err != nil {
		t.Fatal(err)
	}
	// mcf: simple-hammock dominated; gcc: "other" dominated.
	mcfSimple, mcfOther := atof(t, tb.Rows[0][1]), atof(t, tb.Rows[0][3])
	if mcfSimple <= mcfOther {
		t.Errorf("mcf: simple %.2f <= other %.2f", mcfSimple, mcfOther)
	}
	gccDiverge := atof(t, tb.Rows[1][1]) + atof(t, tb.Rows[1][2])
	gccOther := atof(t, tb.Rows[1][3])
	if gccOther <= gccDiverge {
		t.Errorf("gcc: other %.2f <= diverge %.2f", gccOther, gccDiverge)
	}
}

func TestFigure7Shape(t *testing.T) {
	tb, err := Figure7(Options{Scale: 1, Benchmarks: []string{"mcf", "twolf"}})
	if err != nil {
		t.Fatal(err)
	}
	mean := tb.Rows[len(tb.Rows)-1]
	divergePerf := atof(t, mean[4])
	perfectCBP := atof(t, mean[5])
	if divergePerf <= 0 {
		t.Errorf("diverge-perf-conf mean improvement %.1f <= 0", divergePerf)
	}
	if perfectCBP <= divergePerf {
		t.Errorf("perfect-cbp %.1f <= diverge-perf-conf %.1f", perfectCBP, divergePerf)
	}
}

func TestFigure8And10Run(t *testing.T) {
	o := Options{Scale: 1, Benchmarks: []string{"twolf"}}
	t8, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 1 {
		t.Fatal("fig8 rows")
	}
	t10, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t10.Rows) != 1 {
		t.Fatal("fig10 rows")
	}
}

func TestFigure11FlushReduction(t *testing.T) {
	tb, err := Figure11(Options{Scale: 1, Benchmarks: []string{"mcf", "twolf"}})
	if err != nil {
		t.Fatal(err)
	}
	mean := atof(t, tb.Rows[len(tb.Rows)-1][3])
	if mean <= 0 {
		t.Errorf("mean flush reduction %.1f <= 0", mean)
	}
}

func TestFigure12Overheads(t *testing.T) {
	tb, err := Figure12(Options{Scale: 1, Benchmarks: []string{"twolf"}})
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	baseFetched, dmpFetched := atof(t, row[1]), atof(t, row[2])
	baseExec, dmpExec := atof(t, row[3]), atof(t, row[4])
	if dmpFetched >= baseFetched {
		t.Errorf("DMP fetched %v >= base %v (should fall)", dmpFetched, baseFetched)
	}
	if dmpExec <= baseExec {
		t.Errorf("DMP executed %v <= base %v (should rise)", dmpExec, baseExec)
	}
}

func TestSweepTables(t *testing.T) {
	o := Options{Scale: 1, Benchmarks: []string{"twolf"}}
	a, err := Figure13a(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Error("fig13a rows != 3")
	}
	b, err := Figure13b(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 3 {
		t.Error("fig13b rows != 3")
	}
	// Baseline IPC must fall as the pipeline deepens.
	if atof(t, b.Rows[0][1]) <= atof(t, b.Rows[2][1]) {
		t.Errorf("baseline IPC did not fall with depth: %s vs %s", b.Rows[0][1], b.Rows[2][1])
	}
}

func TestDualPathTable(t *testing.T) {
	tb, err := DualPath(Options{Scale: 1, Benchmarks: []string{"twolf"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Error("dualpath rows")
	}
}

func TestIDsCoverAll(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All) {
		t.Fatalf("IDs %d != All %d", len(ids), len(All))
	}
	for _, id := range ids {
		if All[id] == nil {
			t.Errorf("missing generator %s", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note = "n"
	s := tb.String()
	for _, want := range []string{"== x: T ==", "a  bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

func TestRunSuiteErrorsOnBadBench(t *testing.T) {
	_, err := runSuite(core.DefaultConfig(), Options{Scale: 1, Benchmarks: []string{"nope"}})
	if err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestLoopDivergeTable(t *testing.T) {
	tb, err := LoopDiverge(Options{Scale: 1, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatal("loopdiverge rows")
	}
	// gzip's match-extension loop is a diverge loop branch: the loops
	// variant must create additional episodes.
	if atof(t, tb.Rows[0][4]) <= 0 {
		t.Errorf("no extra loop episodes: %v", tb.Rows[0])
	}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		name string
		ids  []string
		want []string // nil: an error
	}{
		{"all", []string{"all"}, IDs()},
		{"subset keeps order", []string{"fig7", "table3"}, []string{"fig7", "table3"}},
		{"nil", nil, nil},
		{"empty", []string{}, nil},
		{"unknown", []string{"fig7", "fig99"}, nil},
		{"all mixed first", []string{"all", "fig7"}, nil},
		{"all mixed last", []string{"fig7", "all"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Resolve(tc.ids)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("Resolve(%q) = %q, want an error", tc.ids, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Resolve(%q): %v", tc.ids, err)
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("Resolve(%q) = %q, want %q", tc.ids, got, tc.want)
			}
		})
	}
}

// TestSamplingReportAfterSampling pins what dmpexp relies on when it
// asks for the sampling report after the tables: every run the report
// needs is memoized, so it simulates nothing, renders the same table,
// and reads the same sampled results (wall-clock fields included) on
// every call. The wall-clock fields are measured beside the results: for
// runs computed in this process they are positive.
func TestSamplingReportAfterSampling(t *testing.T) {
	Reset()
	o := Options{Scale: 1, Benchmarks: []string{"mcf", "twolf"}}
	tb, err := Sampling(o)
	if err != nil {
		t.Fatal(err)
	}
	_, misses := SimCounts()
	report := func() []byte {
		t.Helper()
		rt, rep, err := SamplingReport(o)
		if err != nil {
			t.Fatal(err)
		}
		if rt.String() != tb.String() {
			t.Errorf("report table differs from Sampling's:\n%s\nvs\n%s", rt, tb)
		}
		for _, b := range rep.Benches {
			if b.ExactWall <= 0 || b.SampleWall <= 0 || b.Speedup <= 0 {
				t.Errorf("%s: exact_wall_s %g, sample_wall_s %g, speedup %g; want all > 0",
					b.Bench, b.ExactWall, b.SampleWall, b.Speedup)
			}
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := report(), report()
	if _, after := SimCounts(); after != misses {
		t.Errorf("SamplingReport simulated %d more runs", after-misses)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("report JSON differs between calls:\n%s\n%s", first, second)
	}
}

// TestSamplingReportJoinsErrors pins that every failing sampled
// benchmark is reported, not just the first: a period longer than the
// program leaves each benchmark with no interval to measure.
func TestSamplingReportJoinsErrors(t *testing.T) {
	o := Options{Scale: 1, Benchmarks: []string{"mcf", "twolf"}, Sample: core.SamplePoint{SamplePeriod: 1 << 30}}
	_, _, err := SamplingReport(o)
	if err == nil {
		t.Fatal("sampling with a period longer than the program succeeded")
	}
	for _, b := range o.Benchmarks {
		if !strings.Contains(err.Error(), b+":") {
			t.Errorf("error does not name %s: %v", b, err)
		}
	}
}
