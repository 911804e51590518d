package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// loadFixture type-checks one testdata package with the repo's loader
// (so fixtures can import real repo packages such as internal/core).
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(repoRoot(t), "internal/vet/testdata/src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wants collects `// want "substr"` expectations per file:line.
func wants(fset *token.FileSet, files []*ast.File) map[string][]string {
	out := map[string][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, `want "`)
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len(`want "`):]
				end := strings.Index(rest, `"`)
				if end < 0 {
					continue
				}
				substr := rest[:end]
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				out[key] = append(out[key], substr)
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over a fixture and asserts the
// diagnostics exactly match the fixture's want comments.
func checkFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags := runAnalyzer(a, pkg)
	expected := wants(pkg.Fset, pkg.Files)

	matched := map[string]int{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		ok := false
		for _, substr := range expected[key] {
			if strings.Contains(d.Msg, substr) {
				ok = true
				matched[key]++
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, subs := range expected {
		if matched[key] < len(subs) {
			t.Errorf("%s: expected %d diagnostic(s) matching %q, matched %d",
				key, len(subs), subs, matched[key])
		}
	}
}

func TestFrozenStatsFixture(t *testing.T)       { checkFixture(t, FrozenStats, "frozen") }
func TestNondeterminismFixture(t *testing.T)    { checkFixture(t, Nondeterminism, "nondet") }
func TestHotAllocFixture(t *testing.T)          { checkFixture(t, HotAlloc, "hotpath") }
func TestHotAllocTelemetryFixture(t *testing.T) { checkFixture(t, HotAlloc, "telem") }
func TestCanonicalFixture(t *testing.T)         { checkFixture(t, Canonical, "canon") }

func TestParseAllow(t *testing.T) {
	for _, tc := range []struct {
		text  string
		names []string
		ok    bool
	}{
		{"//dmp:allow frozenstats -- reason", []string{"frozenstats"}, true},
		{"//dmp:allow a, b", []string{"a", "b"}, true},
		{"//dmp:allow nondeterminism", []string{"nondeterminism"}, true},
		{"// ordinary comment", nil, false},
		{"//dmp:hotpath", nil, false},
	} {
		names, ok := parseAllow(tc.text)
		if ok != tc.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if fmt.Sprint(names) != fmt.Sprint(tc.names) && tc.ok {
			t.Errorf("parseAllow(%q) = %v, want %v", tc.text, names, tc.names)
		}
	}
}

func TestAnalyzerApplies(t *testing.T) {
	if FrozenStats.applies("dmp/internal/core") {
		t.Error("frozenstats must not run on package core itself")
	}
	if !FrozenStats.applies("dmp/internal/exp") {
		t.Error("frozenstats must run on exp")
	}
	if Nondeterminism.applies("dmp/cmd/dmpexp") {
		t.Error("nondeterminism is scoped to the simulator packages")
	}
	if !HotAlloc.applies("dmp/internal/core") {
		t.Error("hotalloc must run on core")
	}
	if !HotAlloc.applies("dmp/internal/obs") {
		t.Error("hotalloc must run on the obs sinks (their Uop callbacks ride the hot path)")
	}
	if HotAlloc.applies("dmp/cmd/dmpobs") {
		t.Error("hotalloc must not run on the offline summarizer")
	}
	if !HotAlloc.applies("dmp/internal/cow") {
		t.Error("hotalloc must run on the copy-on-write tables (checkpoint clones ride the hot path)")
	}
	if !HotAlloc.applies("dmp/internal/sample") {
		t.Error("hotalloc must run on the sampling driver's consumer loop")
	}
	if !HotAlloc.applies("dmp/internal/telemetry") {
		t.Error("hotalloc must run on telemetry (its metric hot paths promise zero allocation)")
	}
	if !HotAlloc.applies("dmp/internal/emu") {
		t.Error("hotalloc must run on the emulator (StepInto and Excursion are the functional-warming loop)")
	}
	if !HotAlloc.applies("dmp/internal/bpred") {
		t.Error("hotalloc must run on the predictors (the perceptron kernel trains on every warmed branch)")
	}
	if !Canonical.applies("dmp/internal/core") {
		t.Error("canonical must run on core (Config.Canonical lives there)")
	}
	if Canonical.applies("dmp/internal/exp") {
		t.Error("canonical is scoped to the package defining the cache key")
	}
}

// TestRepoIsVetClean is the live gate: the real tree must have zero
// findings (waivers included). This is the same check CI runs via
// cmd/dmpvet.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo typecheck is slow")
	}
	diags, err := Check(repoRoot(t), DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
