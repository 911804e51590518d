package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dmp/internal/core"
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
// and the file is removed so the slot heals.
func TestTruncatedValueDegradesToMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	d := mustPut(t, s, testMeta("mcf"), testStats())
	path := s.objectPath(d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(d); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("truncated entry was not removed")
	}
	// The slot heals: a re-Put serves again.
	mustPut(t, s, testMeta("mcf"), testStats())
	if _, ok := s.Get(d); !ok {
		t.Fatal("re-Put after corruption did not heal the slot")
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

// TestOpenRecovery covers the crash-recovery matrix: torn index tail,
// index lines pointing at missing objects, orphaned valid objects
// (crash between rename and index append), and orphaned corrupt
// objects.
func TestOpenRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	d1 := mustPut(t, s, testMeta("mcf"), testStats())
	d2 := mustPut(t, s, testMeta("gcc"), testStats())

	// Orphan d2 from the index and tear the tail: keep d1's line, then
	// garbage.
	idx, _ := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	lines := strings.SplitN(string(idx), "\n", 2)
	torn := lines[0] + "\n" + `{"digest":"missing-object","meta":{}}` + "\n" + `{"dig`
	os.WriteFile(filepath.Join(dir, "index.jsonl"), []byte(torn), 0o644)

	// Drop an orphaned corrupt object next to the valid ones.
	badDigest := testMeta("bad").Digest()
	badPath := s.objectPath(badDigest)
	os.MkdirAll(filepath.Dir(badPath), 0o755)
	os.WriteFile(badPath, []byte("not json"), 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(d1); !ok {
		t.Fatal("recovery lost an indexed entry")
	}
	if _, ok := s2.Get(d2); !ok {
		t.Fatal("recovery did not adopt the orphaned valid object")
	}
	if _, ok := s2.Meta(d2); !ok {
		t.Fatal("adopted orphan missing from the recovered inventory")
	}
	if s2.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", s2.Len())
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatal("recovery kept a corrupt orphan")
	}
}
