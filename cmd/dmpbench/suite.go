package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dmp/internal/exp"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// goldenPath is the scale-1 golden, relative to the repository root.
const goldenPath = "cmd/dmpexp/testdata/all-scale1.golden"

// smokeExperiments is the paper-suite at its smallest: two tables that
// share one baseline suite, so the dedup path still runs.
var smokeExperiments = []string{"table3", "fig1"}

// suiteJob regenerates the paper's tables as `dmpexp -scale 1 all` does
// in a fresh process — every program and result cache cold — and checks
// each table byte for byte against the checked-in golden.
//
// The seed changes nothing here: the golden fixes the inputs, and the
// one free choice, the order of the experiments, moved the round time
// from 6.8 to 10.2 s over six seeds on a 2-CPU host, beyond any bound.
type suiteJob struct {
	ids  []string          // experiment ids, in presentation order
	want map[string]string // id -> the golden's text for that table
	opts exp.Options
}

func newSuiteJob(_ uint64, smoke bool) job {
	ids := exp.IDs()
	if smoke {
		ids = smokeExperiments
	}
	o := exp.DefaultOptions()
	o.Scale = 1
	o.Parallel = nproc
	return &suiteJob{ids: ids, opts: o}
}

// setup reads the golden, then builds the suite's annotated programs
// cold, on their own: the program build every round pays again from a
// cold start, timed apart from the simulations.
func (j *suiteJob) setup(sp *telemetry.Span) error {
	path, err := repoFile(goldenPath)
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if j.want, err = splitGolden(string(golden)); err != nil {
		return err
	}
	for _, id := range j.ids {
		if _, ok := j.want[id]; !ok {
			return fmt.Errorf("golden has no table %s", id)
		}
	}
	exp.Reset()
	return annotateAll(workload.Names(), 1, true, sp)
}

// round generates the experiments one after another, in presentation
// order, over one cold result cache; each runs its suites in parallel on
// the worker pool. An operation's latency is the time from the start of
// the round until its table is ready: when dmpexp would print it. dmpexp
// launches every experiment at once instead; the round then does the
// same simulations (405 computed, 360 reused) in about the same time,
// but the tables finish in clusters, and the median table jumped from
// one cluster to another between runs.
func (j *suiteJob) round(rc *roundCtx) error {
	exp.Reset()
	start := time.Now()
	for _, id := range j.ids {
		sp := rc.span.Child("exp."+id, "exp")
		t, err := exp.All[id](j.opts)
		sp.End()
		if err == nil {
			err = diffText(id, t.String()+"\n", j.want[id])
		}
		rc.op(time.Since(start), err)
	}
	return nil
}

func (j *suiteJob) probeSet() probeSet {
	return probeSet{scale: 1, benches: workload.Names(), loops: true}
}

// splitGolden cuts dmpexp's output into its tables, keyed by experiment
// id. Each table runs from its "== id: title ==" header to the next
// header and includes the blank line dmpexp prints after it.
func splitGolden(text string) (map[string]string, error) {
	out := map[string]string{}
	id := ""
	var cur strings.Builder
	flush := func() {
		if id != "" {
			out[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			flush()
			id, _, ok = strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("golden: malformed header %q", strings.TrimSpace(line))
			}
		}
		if id == "" && line != "" {
			return nil, errors.New("golden: text before the first table header")
		}
		cur.WriteString(line)
	}
	flush()
	return out, nil
}

// diffText returns nil when got equals want and otherwise an error
// naming the first line that differs.
func diffText(what, got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("%s differs from the golden at line %d: got %q, want %q", what, i+1, gl, wl)
		}
	}
	return fmt.Errorf("%s differs from the golden", what)
}

// repoFile finds rel under the repository root: the nearest directory,
// from the working directory upwards, that holds it.
func repoFile(rel string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("%s not found above the working directory", rel)
		}
		dir = up
	}
}
