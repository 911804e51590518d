package store

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmp/internal/prog"
)

func testAnnMeta(train string) AnnotationMeta {
	return AnnotationMeta{TrainHash: "t-" + train, Profile: "profile/v1 test"}
}

// testTable returns a program carrying a two-branch diverge table. The
// store never looks at the code, only at the table.
func testTable() *prog.Program {
	p := prog.New()
	p.Diverge[7] = &prog.Diverge{CFMs: []uint64{12, 15}, Class: prog.ClassComplexDiverge, ExitThreshold: 40}
	p.Diverge[3] = &prog.Diverge{CFMs: []uint64{6}, Class: prog.ClassSimpleHammock, ExitThreshold: 11, Loop: true}
	return p
}

func mustPutAnn(t *testing.T, s *Store, m AnnotationMeta) string {
	t.Helper()
	if err := s.PutAnnotations(m.TrainHash, m.Profile, testTable()); err != nil {
		t.Fatal(err)
	}
	return m.Digest()
}

func TestAnnotationsRoundTrip(t *testing.T) {
	s, _ := Open(t.TempDir())
	m := testAnnMeta("mcf")
	d := mustPutAnn(t, s, m)
	got, err := s.Annotations(m.TrainHash, m.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if want := testTable().Diverge; !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %v, want %v", got, want)
	}
	if _, err := os.Stat(s.annotationPath(d)); err != nil {
		t.Fatalf("annotation object not under annotations/: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("annotation object entered the result index (Len %d)", s.Len())
	}
	if _, err := s.Annotations("t-gcc", m.Profile); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing table: error %v, want fs.ErrNotExist", err)
	}
}

func TestAnnotationDigestSeparatesVariants(t *testing.T) {
	base := testAnnMeta("mcf")
	seen := map[string]string{base.Digest(): "base", testMeta("mcf").Digest(): "result"}
	for name, m := range map[string]AnnotationMeta{
		"train":   {TrainHash: "other", Profile: base.Profile},
		"profile": {TrainHash: base.TrainHash, Profile: "profile/v2 test"},
	} {
		d := m.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[d] = name
	}
}

// resealAnn rewrites an annotation object's payload through edit and
// seals it with a valid checksum, so only the payload checks can object.
func resealAnn(t *testing.T, path string, edit func(string) string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	pl := edit(string(env.Payload))
	if pl == string(env.Payload) {
		t.Fatal("test setup: payload edit changed nothing")
	}
	out, err := json.Marshal(envelope{Version: FormatVersion, Sum: sumHex([]byte(pl)), Payload: json.RawMessage(pl)})
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, out, 0o644)
}

// TestAnnotationCorruptionDegradesToMiss is the store half of the
// annotation corruption matrix: every damaged object reads as an error
// other than a plain miss, is removed, and the slot heals on the next
// write. (internal/exp checks that each case re-profiles.)
func TestAnnotationCorruptionDegradesToMiss(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, s *Store, path string){
		"truncated": func(t *testing.T, _ *Store, path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"checksum": func(t *testing.T, _ *Store, path string) {
			data, _ := os.ReadFile(path)
			mut := strings.Replace(string(data), `"exit_threshold":40`, `"exit_threshold":41`, 1)
			if mut == string(data) {
				t.Fatal("test setup: payload value not found")
			}
			os.WriteFile(path, []byte(mut), 0o644)
		},
		"version-skew": func(t *testing.T, _ *Store, path string) {
			data, _ := os.ReadFile(path)
			var env map[string]any
			json.Unmarshal(data, &env)
			env["version"] = FormatVersion + 1
			out, _ := json.Marshal(env)
			os.WriteFile(path, out, 0o644)
		},
		"unknown-field": func(t *testing.T, _ *Store, path string) {
			resealAnn(t, path, func(pl string) string {
				return strings.Replace(pl, `{"meta"`, `{"not_a_field":1,"meta"`, 1)
			})
		},
		"misfiled": func(t *testing.T, s *Store, path string) {
			other := testAnnMeta("gcc")
			os.Remove(path)
			mustPutAnn(t, s, other)
			os.Rename(s.annotationPath(other.Digest()), path)
		},
		"rows-out-of-order": func(t *testing.T, _ *Store, path string) {
			resealAnn(t, path, func(pl string) string {
				return strings.Replace(pl, `"pc":3,`, `"pc":9,`, 1)
			})
		},
		"not-a-diverge-class": func(t *testing.T, _ *Store, path string) {
			resealAnn(t, path, func(pl string) string {
				return strings.Replace(pl, `"class":2`, `"class":0`, 1)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, _ := Open(t.TempDir())
			m := testAnnMeta("mcf")
			path := s.annotationPath(mustPutAnn(t, s, m))
			corrupt(t, s, path)
			table, err := s.Annotations(m.TrainHash, m.Profile)
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("damaged object: table %v, error %v; want a validation error", table, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("damaged object was not removed")
			}
			mustPutAnn(t, s, m)
			if _, err := s.Annotations(m.TrainHash, m.Profile); err != nil {
				t.Fatalf("re-Put did not heal the slot: %v", err)
			}
		})
	}
}

// TestOpenKeepsAnnotations covers both object kinds in one store: a
// torn annotation object reads as an error other than a plain miss and
// is removed by that read, a valid one survives Open, and an annotation
// object dropped into objects/ is never served as a result.
func TestOpenKeepsAnnotations(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	d := mustPut(t, s, testMeta("mcf"), testStats())
	good := testAnnMeta("mcf")
	mustPutAnn(t, s, good)

	torn := testAnnMeta("gcc")
	tornPath := s.annotationPath(mustPutAnn(t, s, torn))
	data, _ := os.ReadFile(tornPath)
	os.WriteFile(tornPath, data[:len(data)/3], 0o644)

	// An annotation object misplaced among the results.
	stray := testAnnMeta("vpr").Digest()
	strayPath := s.objectPath(stray)
	os.MkdirAll(filepath.Dir(strayPath), 0o755)
	os.WriteFile(strayPath, data, 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Annotations(good.TrainHash, good.Profile); err != nil {
		t.Fatalf("a valid annotation object did not survive Open: %v", err)
	}
	if _, err := s2.Annotations(torn.TrainHash, torn.Profile); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn annotation object: error %v, want a validation error", err)
	}
	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Error("the torn annotation object survived the read that rejected it")
	}
	if _, ok := s2.Meta(stray); ok {
		t.Fatal("annotation object under objects/ served a result Meta")
	}
	if _, ok := s2.Get(stray); ok {
		t.Fatal("annotation object under objects/ served as a result")
	}
	if ds := s2.Digests(); len(ds) != 1 || ds[0] != d {
		t.Fatalf("result digests %v after the reads, want only [%s]", ds, d)
	}
}
