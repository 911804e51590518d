// Package store is a content-addressed on-disk result store: the
// persistent half of the scheduler's result cache (internal/sched's
// Backing). Entries are keyed by a digest of everything that determines
// a simulation's outcome — the canonical machine configuration, the
// benchmark/scale/checker tuple, and a hash of the workload program
// itself — and hold versioned, checksummed JSON-serialized core.Stats,
// with a sampled run's manifest (sample.Result) beside its extrapolated
// Stats.
//
// Durability contract: a reader may never observe a torn or corrupt
// entry as valid Stats. Every failure mode — truncated value file,
// checksum mismatch, format-version skew, schema drift, a crash between
// write and rename, a second process reading while the first writes —
// degrades to a cache miss (and the offending file is removed), never
// to poisoned numbers. The pieces that make that hold:
//
//   - values are written to a private temp file and atomically renamed
//     into place, so a reader sees either nothing or whole bytes;
//   - the envelope carries a format version and a SHA-256 of the
//     payload, so truncation and bit rot fail closed;
//   - the payload decodes with DisallowUnknownFields, and the digest
//     itself covers a reflected fingerprint of core.Stats's field set,
//     so a schema change (field added, renamed, retyped) changes every
//     key and old entries simply become unreachable rather than
//     decoding into the wrong shape;
//   - Open removes leftover *.tmp files, the traces of interrupted
//     writes. It reads no object: every read checks the object it
//     opens, so a fault is met and removed by the first read that
//     reaches it, and a bad file no key addresses is never served.
//
// Layout under the store directory:
//
//	objects/<digest[:2]>/<digest>.json       one entry per unique simulation
//	annotations/<digest[:2]>/<digest>.json   one diverge table (annotations.go)
//
// The files are the whole store: a Store holds no state beside them, so
// several processes may share one store directory (writers via atomic
// rename — last identical write wins — and every read goes to disk).
// An index.jsonl left by an older version is ignored.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"dmp/internal/core"
	"dmp/internal/sample"
)

// FormatVersion is the on-disk envelope version. Bump it when the
// envelope or payload framing changes incompatibly; old entries then
// read as misses and are rewritten on the next computation.
const FormatVersion = 1

// statsSchema fingerprints core.Stats's field names and types. It is
// folded into every digest so that a Stats schema change invalidates
// the whole store by construction: an old entry could otherwise decode
// "successfully" with a missing field silently zeroed.
var statsSchema = schemaOf(reflect.TypeOf(core.Stats{}))

// schemaOf fingerprints a struct type's field names and types.
func schemaOf(t reflect.Type) string {
	h := sha256.New()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fmt.Fprintf(h, "%s %s\n", f.Name, f.Type.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Meta identifies one simulation: the store-side mirror of sched.Key
// with the program pinned by content hash instead of by name alone (a
// workload generator change must not serve stale results).
type Meta struct {
	Bench string `json:"bench"`
	Scale int    `json:"scale"`
	Check bool   `json:"check"`
	// Config must be canonical (core.Config.Canonical) so equivalent
	// configurations share one entry.
	Config core.Config `json:"config"`
	// WorkloadHash is prog.Program.Hash() of the annotated program the
	// simulation ran.
	WorkloadHash string `json:"workload_hash"`
}

// Digest returns the entry's content address: SHA-256 over the format
// version, the simulator's model version (core.ModelVersion), the Stats
// schema fingerprint, and the JSON encoding of m (struct field order is
// fixed, so the encoding is deterministic).
func (m Meta) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "dmp-store/%d/%d/%s\n", FormatVersion, core.ModelVersion, statsSchema)
	enc, err := json.Marshal(m)
	if err != nil {
		// core.Config and the scalar fields always marshal; a failure
		// here is a programming error, not a runtime condition.
		panic(fmt.Sprintf("store: marshal Meta: %v", err))
	}
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// envelope is the on-disk framing: version, payload checksum, payload.
type envelope struct {
	Version int             `json:"version"`
	Sum     string          `json:"sum"` // SHA-256 hex of the payload bytes
	Payload json.RawMessage `json:"payload"`
}

// payload is the checksummed content. A sampled run's payload also
// holds its manifest, whose extrapolated Stats are the payload's Stats;
// an exact run's holds none, so its object encodes as it did before
// sampled runs were stored.
type payload struct {
	Meta   Meta           `json:"meta"`
	Stats  core.Stats     `json:"stats"`
	Sample *sample.Result `json:"sample,omitempty"`
}

// Store is one directory of results. It holds no state beside the
// directory's files, so it is safe for concurrent use within a process
// and for multiple processes sharing the directory.
type Store struct {
	dir string
}

// Open opens (creating if needed) a store directory and removes the
// temp files that interrupted writes left in it. It reads no object.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Writes go temp-file -> rename, so any surviving *.tmp is an
	// interrupted write: unreadable by design, deleted on sight.
	for _, tree := range []string{"objects", "annotations"} {
		err := filepath.WalkDir(filepath.Join(dir, tree), func(path string, d fs.DirEntry, err error) error {
			if os.IsNotExist(err) {
				return nil
			}
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
				os.Remove(path)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("store: scan %s: %w", tree, err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.dir, "objects", shard(digest), digest+".json")
}

// shard is the subdirectory an object with this digest is filed under.
func shard(digest string) string {
	if len(digest) < 2 {
		return "xx"
	}
	return digest[:2]
}

// Get returns the Stats stored under digest, or (nil, false) on any
// miss or doubt. Corrupt files (truncation, checksum mismatch, version
// skew, undecodable or misfiled payload) are deleted so the slot heals
// on the next Put. Reads go to disk, so a Get observes other processes'
// completed writes.
func (s *Store) Get(digest string) (*core.Stats, bool) {
	p, ok := s.read(digest)
	if !ok {
		return nil, false
	}
	return &p.Stats, true
}

// read reads and fully checks the object filed under digest, removing
// it if it fails.
func (s *Store) read(digest string) (*payload, bool) {
	path := s.objectPath(digest)
	var p payload
	if err := readEnvelope(path, &p); err != nil {
		if !os.IsNotExist(err) {
			os.Remove(path)
		}
		return nil, false
	}
	if p.Meta.Digest() != digest {
		// The payload belongs to a different key: a misfiled object can
		// only come from corruption or tampering; never serve it.
		os.Remove(path)
		return nil, false
	}
	return &p, true
}

// Load is the Meta-level read: digest computed for the caller.
func (s *Store) Load(m Meta) (*core.Stats, bool) {
	return s.Get(m.Digest())
}

// LoadSampled is Load for a sampled run: its manifest, with the
// extrapolated Stats attached. An exact run's object never answers it.
func (s *Store) LoadSampled(m Meta) (*sample.Result, bool) {
	p, ok := s.read(m.Digest())
	if !ok || p.Sample == nil {
		return nil, false
	}
	p.Sample.Extrapolated = &p.Stats
	return p.Sample, true
}

// Put writes an entry, returning its digest. The write is atomic
// (private temp file, fsync-free rename): concurrent writers of the
// same key race benignly — the payload bytes are identical because the
// simulator is deterministic, and the last rename wins.
func (s *Store) Put(m Meta, st *core.Stats) (string, error) {
	return s.put(payload{Meta: m, Stats: *st})
}

// PutSampled is Put for a sampled run: it stores r's manifest beside
// its extrapolated Stats. m.Config has SampleMode set.
func (s *Store) PutSampled(m Meta, r *sample.Result) (string, error) {
	return s.put(payload{Meta: m, Stats: *r.Extrapolated, Sample: r})
}

func (s *Store) put(p payload) (string, error) {
	digest := p.Meta.Digest()
	if err := writeObject(s.objectPath(digest), digest, p); err != nil {
		return "", err
	}
	return digest, nil
}

// writeObject seals pl in an envelope and publishes it at path through
// a private temp file and an atomic rename, so a reader sees either
// nothing or the whole object.
func writeObject(path, digest string, pl any) error {
	data, err := json.Marshal(pl)
	if err != nil {
		return fmt.Errorf("store: marshal payload: %w", err)
	}
	sum := sha256.Sum256(data)
	env, err := json.Marshal(envelope{Version: FormatVersion, Sum: hex.EncodeToString(sum[:]), Payload: data})
	if err != nil {
		return fmt.Errorf("store: marshal envelope: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), digest+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(append(env, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", digest[:12], errFirst(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publish %s: %w", digest[:12], err)
	}
	return nil
}

// Len returns the number of result object files.
func (s *Store) Len() int { return len(s.Digests()) }

// Digests returns the digests of the result object files, sorted. A
// listed object is not yet checked: Get or Meta checks it on read.
func (s *Store) Digests() []string {
	var out []string
	filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			out = append(out, strings.TrimSuffix(d.Name(), ".json"))
		}
		return nil
	})
	slices.Sort(out)
	return out
}

// Meta returns the Meta of the object filed under digest, read and
// checked as Get reads it.
func (s *Store) Meta(digest string) (Meta, bool) {
	p, ok := s.read(digest)
	if !ok {
		return Meta{}, false
	}
	return p.Meta, true
}

// readEnvelope reads one object file, checks its envelope version and
// payload checksum, and decodes the payload strictly into pl.
func readEnvelope(path string, pl any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("store: envelope: %w", err)
	}
	if env.Version != FormatVersion {
		return fmt.Errorf("store: format version %d, want %d", env.Version, FormatVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Sum {
		return fmt.Errorf("store: payload checksum mismatch")
	}
	dec := json.NewDecoder(bytes.NewReader(env.Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(pl); err != nil {
		return fmt.Errorf("store: payload: %w", err)
	}
	return nil
}

func errFirst(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
