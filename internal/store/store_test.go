package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dmp/internal/core"
	"dmp/internal/sample"
)

func sumHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func testMeta(bench string) Meta {
	return Meta{Bench: bench, Scale: 1, Check: true,
		Config: core.EnhancedDMPConfig().Canonical(), WorkloadHash: "w-" + bench}
}

func testStats() *core.Stats {
	return &core.Stats{RetiredInsts: 12345, Cycles: 6789, WallSeconds: 1.5}
}

// testSampled returns a sampled run's Meta and Result.
func testSampled(bench string) (Meta, *sample.Result) {
	cfg := core.EnhancedDMPConfig()
	cfg.SampleMode = true
	m := testMeta(bench)
	m.Config = cfg.Canonical()
	return m, &sample.Result{TotalInsts: 12345, Period: 6000, IntervalLen: 500, Ramp: 512,
		PrefixRetired: 2048, PrefixCycles: 4000, K: 2, DetailedRetired: 3048, DetailedCycles: 4600,
		IPC: 1.8, IPCMean: 1.75, CI95: 0.05,
		Intervals: []sample.Interval{
			{Index: 0, Start: 6000, RampRetired: 512, Retired: 500, Cycles: 300, IPC: 500.0 / 300},
			{Index: 1, Start: 12000, RampRetired: 512, Retired: 500, Cycles: 300, IPC: 500.0 / 300}},
		Extrapolated: testStats()}
}

func mustPut(t *testing.T, s *Store, m Meta, st *core.Stats) string {
	t.Helper()
	d, err := s.Put(m, st)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, want := testMeta("mcf"), testStats()
	d := mustPut(t, s, m, want)
	got, ok := s.Get(d)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if *got != *want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if ds := s.Digests(); len(ds) != 1 || ds[0] != d {
		t.Fatalf("Digests = %v, want [%s]", ds, d)
	}
}

// TestSampledRoundTrip pins the sampled half of the store: a sampled
// run reads back with an equal manifest and equal extrapolated Stats, an
// exact object never answers a sampled read, and an exact object's
// payload carries no sample key, so it encodes as it did before sampled
// runs were stored.
func TestSampledRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, want := testSampled("mcf")
	d, err := s.PutSampled(m, want)
	if err != nil {
		t.Fatal(err)
	}
	if d != m.Digest() {
		t.Fatalf("PutSampled filed under %s, want %s", d, m.Digest())
	}
	got, ok := s.LoadSampled(m)
	if !ok {
		t.Fatal("LoadSampled missed a just-written entry")
	}
	if *got.Extrapolated != *want.Extrapolated {
		t.Errorf("extrapolated Stats: got %+v, want %+v", got.Extrapolated, want.Extrapolated)
	}
	gotM, wantM := *got, *want
	gotM.Extrapolated, wantM.Extrapolated = nil, nil
	if !reflect.DeepEqual(gotM, wantM) {
		t.Errorf("manifest: got %+v, want %+v", gotM, wantM)
	}

	exact := testMeta("mcf")
	ed := mustPut(t, s, exact, testStats())
	if _, ok := s.LoadSampled(exact); ok {
		t.Error("an exact object answered a sampled read")
	}
	if _, ok := s.Get(ed); !ok {
		t.Error("a sampled read removed the exact object it declined")
	}
	data, err := os.ReadFile(s.objectPath(ed))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	var pl map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &pl); err != nil {
		t.Fatal(err)
	}
	if _, ok := pl["sample"]; ok || len(pl) != 2 {
		t.Errorf("exact payload %s, want meta and stats only", env.Payload)
	}
}

func TestDigestSeparatesVariants(t *testing.T) {
	base := testMeta("mcf")
	seen := map[string]string{base.Digest(): "base"}
	for name, m := range map[string]func(Meta) Meta{
		"scale":    func(m Meta) Meta { m.Scale = 2; return m },
		"check":    func(m Meta) Meta { m.Check = false; return m },
		"loops":    func(m Meta) Meta { m.Config.EnableLoopDiverge = true; return m },
		"bench":    func(m Meta) Meta { m.Bench = "gcc"; return m },
		"workload": func(m Meta) Meta { m.WorkloadHash = "other"; return m },
		"config":   func(m Meta) Meta { m.Config = core.DefaultConfig().Canonical(); return m },
	} {
		d := m(base).Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[d] = name
	}
	if base.Digest() != testMeta("mcf").Digest() {
		t.Fatal("digest is not deterministic")
	}
}

// TestDigestPinned pins two store keys to their hex values: one exact
// baseline run and one sampled enhanced run at a per-benchmark
// operating point. Persisted objects are addressed by these digests, so
// a Config change that moves them (a renamed, reordered or regrouped
// field) turns every stored result into a miss. They moved once when
// core.ModelVersion joined the preimage, in the same change that
// dropped Config.EarlyExitDefault and Config.SelectiveBPUpdate: from
// then on a simulator change that moves results bumps ModelVersion.
func TestDigestPinned(t *testing.T) {
	sampled := core.EnhancedDMPConfig()
	sampled.SampleMode = true
	sampled.SamplePoint = core.SamplePoint{SamplePeriod: 18000, SampleInterval: 750, SampleWarmup: 1024, WarmMode: "caches"}
	for _, tc := range []struct {
		name string
		meta Meta
		want string
	}{
		{"exact-baseline", Meta{Bench: "mcf", Scale: 1, Check: true, Config: core.DefaultConfig().Canonical(), WorkloadHash: "w"},
			"2bbd8797adb9c55b3c0671372d4a33ff6bcb6533e203b7ace3dc85897aef7020"},
		{"sampled-enhanced", Meta{Bench: "mcf", Scale: 3, Check: true, Config: sampled.Canonical(), WorkloadHash: "w"},
			"00b6faeae4770b824f30dd9515fb3f11a7a648133fd8abf0288701fcf3a22f7d"},
	} {
		if got := tc.meta.Digest(); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestTruncatedValueDegradesToMiss pins the first corruption path: a
// value file cut short (crash mid-write would be caught by the rename
// protocol, but disks and copies can still truncate) reads as a miss
// and the file is removed so the slot heals. Exact and sampled objects
// alike.
func TestTruncatedValueDegradesToMiss(t *testing.T) {
	sm, sr := testSampled("mcf")
	for _, tc := range []struct {
		name string
		put  func(*Store) (string, error)
		read func(*Store) bool
	}{
		{"exact",
			func(s *Store) (string, error) { return s.Put(testMeta("mcf"), testStats()) },
			func(s *Store) bool { _, ok := s.Load(testMeta("mcf")); return ok }},
		{"sampled",
			func(s *Store) (string, error) { return s.PutSampled(sm, sr) },
			func(s *Store) bool { _, ok := s.LoadSampled(sm); return ok }},
	} {
		s, _ := Open(t.TempDir())
		d, err := tc.put(s)
		if err != nil {
			t.Fatal(err)
		}
		path := s.objectPath(d)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.read(s) {
			t.Fatalf("%s: truncated entry served as a hit", tc.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: truncated entry was not removed", tc.name)
		}
		// The slot heals: a re-Put serves again.
		if _, err := tc.put(s); err != nil {
			t.Fatal(err)
		}
		if !tc.read(s) {
			t.Fatalf("%s: re-Put after corruption did not heal the slot", tc.name)
		}
	}
}

// TestChecksumMismatchDegradesToMiss flips payload bytes under an
// intact envelope: the checksum, not JSON well-formedness, must catch
// it.
func TestChecksumMismatchDegradesToMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := mustPut(t, s, testMeta("gcc"), testStats())
	path := s.objectPath(d)
	data, _ := os.ReadFile(path)
	// Corrupt a digit inside the payload's numbers, keeping valid JSON.
	mut := strings.Replace(string(data), "12345", "12845", 1)
	if mut == string(data) {
		t.Fatal("test setup: payload value not found")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(d); ok {
		t.Fatal("checksum-mismatched entry served as a hit")
	}
}

func TestVersionSkewDegradesToMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := mustPut(t, s, testMeta("vpr"), testStats())
	path := s.objectPath(d)
	data, _ := os.ReadFile(path)
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = FormatVersion + 1
	out, _ := json.Marshal(env)
	os.WriteFile(path, out, 0o644)
	if _, ok := s.Get(d); ok {
		t.Fatal("future-version entry served as a hit")
	}
}

// TestUnknownPayloadFieldDegradesToMiss stands in for schema drift the
// digest fingerprint cannot catch alone (an entry hand-edited or from
// a divergent build): unknown fields fail the strict decode.
func TestUnknownPayloadFieldDegradesToMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := mustPut(t, s, testMeta("gap"), testStats())
	path := s.objectPath(d)
	data, _ := os.ReadFile(path)
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	pl := strings.Replace(string(env.Payload), `{"meta"`, `{"not_a_field":1,"meta"`, 1)
	// Re-seal with a valid checksum so only the strict decode can
	// object.
	rewritten, err := json.Marshal(struct {
		Version int             `json:"version"`
		Sum     string          `json:"sum"`
		Payload json.RawMessage `json:"payload"`
	}{FormatVersion, sumHex([]byte(pl)), json.RawMessage(pl)})
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, rewritten, 0o644)
	if _, ok := s.Get(d); ok {
		t.Fatal("entry with unknown payload fields served as a hit")
	}
}

// TestMisfiledObjectDegradesToMiss renames a valid object under another
// key's digest: content addressing must refuse to serve it.
func TestMisfiledObjectDegradesToMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := mustPut(t, s, testMeta("mcf"), testStats())
	other := testMeta("gcc").Digest()
	otherPath := s.objectPath(other)
	os.MkdirAll(filepath.Dir(otherPath), 0o755)
	data, _ := os.ReadFile(s.objectPath(d))
	os.WriteFile(otherPath, data, 0o644)
	if _, ok := s.Get(other); ok {
		t.Fatal("object served under a digest that does not match its meta")
	}
}

// TestConcurrentWritersSameKey races many writers of one key: the
// rename protocol means every interleaving leaves a whole, valid file.
func TestConcurrentWritersSameKey(t *testing.T) {
	s, _ := Open(t.TempDir())
	m, st := testMeta("twolf"), testStats()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Put(m, st); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok := s.Get(m.Digest())
	if !ok || *got != *st {
		t.Fatalf("after concurrent writes: got %+v ok=%v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 deduped entry", s.Len())
	}
}

// TestSecondProcessReadsWhileFirstWrites simulates cross-process
// sharing: a second Store over the same directory must see completed
// writes (reads go to disk) and must read an in-progress write — the
// temp file — as a miss.
func TestSecondProcessReadsWhileFirstWrites(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir)
	r, _ := Open(dir) // the "second process"
	m, st := testMeta("parser"), testStats()
	d := m.Digest()

	// In-progress write: only the temp file exists. Reader misses.
	objDir := filepath.Dir(w.objectPath(d))
	os.MkdirAll(objDir, 0o755)
	tmp := filepath.Join(objDir, d+".012345.tmp")
	os.WriteFile(tmp, []byte(`{"version":1,"sum":"`), 0o644)
	if _, ok := r.Get(d); ok {
		t.Fatal("reader served an in-progress (temp) write")
	}

	// Completed write by the first process: the second sees it without
	// reopening.
	mustPut(t, w, m, st)
	got, ok := r.Get(d)
	if !ok || *got != *st {
		t.Fatalf("reader missed the other process's completed write: %+v ok=%v", got, ok)
	}

	// A third Open drops the abandoned temp file.
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("Open left the abandoned temp file in place")
	}
}

// TestOpenRecovery covers crash recovery: Open removes the temp files
// interrupted writes left in both trees and reads no object; a
// truncated object and a corrupt orphan each read as a miss and are gone
// after that read; Len and Digests count the object files.
func TestOpenRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	d1 := mustPut(t, s, testMeta("mcf"), testStats())
	d2 := mustPut(t, s, testMeta("gcc"), testStats())
	ann := testAnnMeta("mcf")
	annPath := s.annotationPath(mustPutAnn(t, s, ann))

	// Leftover temp files in both trees.
	var tmps []string
	for _, path := range []string{s.objectPath(d1), annPath} {
		tmp := strings.TrimSuffix(path, ".json") + ".123.tmp"
		os.WriteFile(tmp, []byte(`{"version":1,"sum":"`), 0o644)
		tmps = append(tmps, tmp)
	}

	// Truncate d2, and drop a corrupt orphan next to the valid objects.
	data, _ := os.ReadFile(s.objectPath(d2))
	os.WriteFile(s.objectPath(d2), data[:len(data)/2], 0o644)
	bad := testMeta("bad").Digest()
	badPath := s.objectPath(bad)
	os.MkdirAll(filepath.Dir(badPath), 0o755)
	os.WriteFile(badPath, []byte("not json"), 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tmp := range tmps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("Open left the temp file %s", filepath.Base(tmp))
		}
	}
	// Open reads no object: the damaged files are still there, counted.
	want := []string{d1, d2, bad}
	slices.Sort(want)
	if ds := s2.Digests(); !slices.Equal(ds, want) {
		t.Fatalf("Digests after Open = %v, want %v", ds, want)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len after Open = %d, want 3", s2.Len())
	}

	if _, ok := s2.Get(d1); !ok {
		t.Fatal("Open lost a valid object")
	}
	if _, err := s2.Annotations(ann.TrainHash, ann.Profile); err != nil {
		t.Fatalf("Open lost a valid annotation object: %v", err)
	}
	if _, ok := s2.Get(d2); ok {
		t.Fatal("truncated object served as a hit")
	}
	if _, ok := s2.Meta(bad); ok {
		t.Fatal("corrupt orphan served a Meta")
	}
	for what, path := range map[string]string{"truncated object": s.objectPath(d2), "corrupt orphan": badPath} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("the %s survived the read that rejected it", what)
		}
	}
	if ds := s2.Digests(); len(ds) != 1 || ds[0] != d1 || s2.Len() != 1 {
		t.Fatalf("Digests after the reads = %v (Len %d), want [%s]", ds, s2.Len(), d1)
	}
	if m, ok := s2.Meta(d1); !ok || m != testMeta("mcf") {
		t.Fatalf("Meta(%s) = %+v, %v; want %+v", d1[:12], m, ok, testMeta("mcf"))
	}
}
