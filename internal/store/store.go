// Package store is a content-addressed on-disk result store: the
// persistent half of the scheduler's result cache (internal/sched's
// Backing). Entries are keyed by a digest of everything that determines
// a simulation's outcome — the canonical machine configuration (whose
// loop-diverge bit also picks the annotation variant), the
// benchmark/scale/checker tuple, and a hash of the workload program
// itself — and hold versioned, checksummed
// JSON-serialized core.Stats.
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
//   - Open drops leftover *.tmp files and reconciles the index against
//     the objects actually on disk (torn index lines are skipped,
//     orphaned objects are adopted or deleted).
//
// Layout under the store directory:
//
//	objects/<digest[:2]>/<digest>.json       one entry per unique simulation
//	index.jsonl                              advisory inventory, one line per entry
//	annotations/<digest[:2]>/<digest>.json   one diverge table (annotations.go)
//
// The index is an inventory for humans and for fast Open; reads go
// straight to the object files, so several processes may share one
// store directory (writers via atomic rename — last identical write
// wins — and readers never consult another process's in-memory state).
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"

	"dmp/internal/core"
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

// payload is the checksummed content.
type payload struct {
	Meta  Meta       `json:"meta"`
	Stats core.Stats `json:"stats"`
}

// indexLine is one advisory inventory record.
type indexLine struct {
	Digest string `json:"digest"`
	Meta   Meta   `json:"meta"`
}

// Store is one directory of results. Safe for concurrent use within a
// process and for multiple processes sharing the directory.
type Store struct {
	dir string

	mu  sync.Mutex
	idx map[string]Meta // digest -> meta, this process's view
}

// Open opens (creating if needed) a store directory and runs crash
// recovery: leftover temp files from interrupted writes are removed,
// torn index lines are dropped, objects missing from the index are
// verified and adopted (or deleted if corrupt), and annotation objects
// are verified and kept (or deleted if corrupt), never indexed.
func Open(dir string) (*Store, error) {
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, idx: map[string]Meta{}}

	// Writes go temp-file -> rename, so any surviving *.tmp is an
	// interrupted write: unreadable by design, deleted on sight.
	var orphans []string
	err := filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			os.Remove(path)
			return nil
		}
		if strings.HasSuffix(path, ".json") {
			orphans = append(orphans, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan objects: %w", err)
	}

	// Load the index, tolerating a torn tail (a crash mid-append leaves
	// a partial last line; everything before it is still good).
	if f, err := os.Open(s.indexPath()); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			var ln indexLine
			if json.Unmarshal(sc.Bytes(), &ln) != nil || ln.Digest == "" {
				continue
			}
			if _, err := os.Stat(s.objectPath(ln.Digest)); err == nil {
				s.idx[ln.Digest] = ln.Meta
			}
		}
		f.Close()
	}

	// Adopt objects the index missed (crash between rename and index
	// append, or an index written by another process): verify each; a
	// corrupt or misfiled object is deleted rather than trusted.
	for _, path := range orphans {
		digest := strings.TrimSuffix(filepath.Base(path), ".json")
		if _, ok := s.idx[digest]; ok {
			continue
		}
		_, meta, err := readObject(path)
		if err != nil || meta.Digest() != digest {
			os.Remove(path)
			continue
		}
		s.idx[digest] = meta
		s.appendIndex(indexLine{Digest: digest, Meta: meta})
	}

	// Annotation objects are verified the same way but never indexed.
	err = filepath.WalkDir(filepath.Join(dir, "annotations"), func(path string, d fs.DirEntry, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".tmp"):
			os.Remove(path)
		case strings.HasSuffix(path, ".json"):
			if _, err := readAnnotations(path, strings.TrimSuffix(filepath.Base(path), ".json")); err != nil {
				os.Remove(path)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan annotations: %w", err)
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }

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
// on the next Put. Reads go to disk, not to this process's index, so a
// Get observes other processes' completed writes.
func (s *Store) Get(digest string) (*core.Stats, bool) {
	path := s.objectPath(digest)
	st, meta, err := readObject(path)
	if err != nil {
		if !os.IsNotExist(err) {
			os.Remove(path)
		}
		return nil, false
	}
	if meta.Digest() != digest {
		// The payload belongs to a different key: a misfiled object can
		// only come from corruption or tampering; never serve it.
		os.Remove(path)
		return nil, false
	}
	return st, true
}

// Load is the Meta-level read: digest computed for the caller.
func (s *Store) Load(m Meta) (*core.Stats, bool) {
	return s.Get(m.Digest())
}

// Put writes an entry, returning its digest. The write is atomic
// (private temp file, fsync-free rename): concurrent writers of the
// same key race benignly — the payload bytes are identical because the
// simulator is deterministic, and the last rename wins.
func (s *Store) Put(m Meta, st *core.Stats) (string, error) {
	digest := m.Digest()
	if err := writeObject(s.objectPath(digest), digest, payload{Meta: m, Stats: *st}); err != nil {
		return "", err
	}
	s.mu.Lock()
	_, known := s.idx[digest]
	if !known {
		s.idx[digest] = m
	}
	s.mu.Unlock()
	if !known {
		s.appendIndex(indexLine{Digest: digest, Meta: m})
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

// appendIndex appends one inventory line. The index is advisory (reads
// never depend on it), so append errors are swallowed: the object is
// already durable and Open's orphan scan re-adopts it.
func (s *Store) appendIndex(ln indexLine) {
	data, err := json.Marshal(ln)
	if err != nil {
		return
	}
	f, err := os.OpenFile(s.indexPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(append(data, '\n'))
	f.Close()
}

// Len returns the number of entries in this process's view.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Digests returns this process's view of the stored digests, sorted.
func (s *Store) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.idx))
	for d := range s.idx { //dmp:allow nondeterminism -- keys are sorted below
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Meta returns the recorded Meta for a digest in this process's view.
func (s *Store) Meta(digest string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.idx[digest]
	return m, ok
}

// readObject reads and fully validates one result object file.
func readObject(path string) (*core.Stats, Meta, error) {
	var p payload
	if err := readEnvelope(path, &p); err != nil {
		return nil, Meta{}, err
	}
	return &p.Stats, p.Meta, nil
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
