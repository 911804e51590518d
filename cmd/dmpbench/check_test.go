package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"dmp/internal/core"
	"dmp/internal/serve"
)

func newRC() *roundCtx { return &roundCtx{name: "test", counts: map[string]float64{}} }

func TestSplitGoldenCoversEveryTable(t *testing.T) {
	path, err := repoFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := splitGolden(string(data))
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for _, id := range newSuiteJob(1, false).(*suiteJob).ids {
		if tables[id] == "" {
			t.Errorf("golden has no table %s", id)
		}
	}
	for _, id := range []string{"table2", "table3", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13a", "fig13b", "dualpath", "loopdiverge", "mergepred", "sampling"} {
		joined.WriteString(tables[id])
	}
	if joined.String() != string(data) {
		t.Error("the golden's tables do not concatenate back to the golden")
	}
	if _, err := splitGolden("stray\n== a: b ==\n"); err == nil {
		t.Error("text before the first header accepted")
	}
}

// A perturbed golden line must fail the round's check for that table.
func TestPerturbedGoldenCountsAsFailed(t *testing.T) {
	j := newSuiteJob(1, true).(*suiteJob)
	if err := j.setup(nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(j.want["table3"], "\n")
	lines[2] = strings.TrimSuffix(lines[2], "\n") + " \n"
	j.want["table3"] = strings.Join(lines, "")

	rc := newRC()
	if err := j.round(rc); err != nil {
		t.Fatal(err)
	}
	if rc.attempted != len(smokeExperiments) || rc.failed != 1 {
		t.Errorf("attempted %d failed %d; want %d and 1", rc.attempted, rc.failed, len(smokeExperiments))
	}
	if err := diffText("table3", "a\nb\n", "a\nc\n"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("diffText = %v, want a mismatch at line 2", err)
	}
}

// A restarted daemon must answer with exactly the Stats the cold daemon
// computed.
func TestRestartStatsMismatchFails(t *testing.T) {
	cold := &core.Stats{Cycles: 100, RetiredInsts: 80, WallSeconds: 0.5}
	req := serve.RunRequest{Bench: "mcf", Mode: "baseline"}
	same := *cold
	if err := checkRestart(req, cold, &serve.RunStatus{Stats: &same}); err != nil {
		t.Errorf("identical Stats rejected: %v", err)
	}
	off := *cold
	off.Cycles++
	if err := checkRestart(req, cold, &serve.RunStatus{Stats: &off}); err == nil {
		t.Error("Stats with a different cycle count accepted")
	}
	if err := checkRestart(req, nil, &serve.RunStatus{Stats: &same}); err == nil {
		t.Error("an answer with no cold answer to compare accepted")
	}

	// The exact and sampled rounds compare simulated fields only.
	later := *cold
	later.WallSeconds = 9
	if !sameSimulated(cold, &later) {
		t.Error("wall time difference counted as a simulated difference")
	}
	if sameSimulated(cold, &off) {
		t.Error("cycle difference missed")
	}
}

// A non-200 answer, or a 200 whose run did not finish, must count as a
// failed request.
func TestNon200CountsAsFailed(t *testing.T) {
	if _, err := decodeRun(http.StatusTooManyRequests, strings.NewReader(`{"error":"overloaded"}`)); err == nil {
		t.Error("429 accepted")
	}
	if _, err := decodeRun(http.StatusOK, strings.NewReader(`{"id":"r1","state":"failed","error":"boom"}`)); err == nil {
		t.Error("failed run accepted")
	}
	if _, err := decodeRun(http.StatusOK, strings.NewReader(`{"id":"r1","state":"done","stats":{"Cycles":1}}`)); err != nil {
		t.Errorf("finished run rejected: %v", err)
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	d := &daemon{ts: ts}
	rc := newRC()
	reqs := []serve.RunRequest{{Bench: "mcf"}, {Bench: "gcc"}}
	d.send(rc, nil, reqs, 5, true, func(int, *serve.RunStatus) error { return nil })
	if rc.attempted != 5 || rc.failed != 5 || len(rc.ops) != 5 {
		t.Errorf("attempted %d failed %d timed %d; want 5 each", rc.attempted, rc.failed, len(rc.ops))
	}
}

// Any failed check makes the benchmark exit non-zero.
func TestFailedOutcomeExitsNonZero(t *testing.T) {
	ok := Outcome{Correct: true, Attempted: 3}
	if got := exitCode(Record{Workloads: map[string]Outcome{"a": ok, "b": ok}}); got != 0 {
		t.Errorf("all correct: exit %d", got)
	}
	bad := Outcome{Correct: false, Attempted: 3, Failed: 1}
	if got := exitCode(Record{Workloads: map[string]Outcome{"a": ok, "b": bad}}); got == 0 {
		t.Error("a failed workload exits 0")
	}
}
