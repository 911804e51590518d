package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"dmp/internal/prog"
)

// Annotation objects hold the output of the training profile
// (internal/profile): one program's diverge table. Profiling is the
// cost of building an annotated program, so a daemon restarted over a
// store that holds its tables builds every program without profiling.
// They share the result objects' envelope, checksum, atomic rename and
// strict decode, and live in their own tree, out of Len and Digests:
//
//	annotations/<digest[:2]>/<digest>.json   one diverge table
//
// An annotation object misplaced under objects/ fails the result
// payload's strict decode, so Get never serves it.

// divergeSchema fingerprints prog.Diverge's field set, as statsSchema
// does for core.Stats: an annotation field added, renamed or retyped
// changes every annotation digest, so no stored table decodes with the
// new field silently zeroed.
var divergeSchema = schemaOf(reflect.TypeOf(prog.Diverge{}))

// AnnotationMeta identifies one diverge table: the program the profile
// trained on and the profiler that ran.
type AnnotationMeta struct {
	// TrainHash is prog.Program.Hash() of the unannotated training
	// program.
	TrainHash string `json:"train_hash"`
	// Profile is profile.Options.Key() of the pass: the profiler's
	// Version and its scalar options.
	Profile string `json:"profile"`
}

// Digest returns the table's content address: SHA-256 over the format
// version, the annotation schema fingerprint, and the JSON encoding of
// m.
func (m AnnotationMeta) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "dmp-annotations/%d/%s\n", FormatVersion, divergeSchema)
	enc, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("store: marshal AnnotationMeta: %v", err))
	}
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// branch is one diverge-table row.
type branch struct {
	PC            uint64           `json:"pc"`
	CFMs          []uint64         `json:"cfms"`
	Class         prog.BranchClass `json:"class"`
	ExitThreshold int              `json:"exit_threshold"`
	Loop          bool             `json:"loop"`
}

// annotationPayload is an annotation object's checksummed content. The
// branches are sorted by PC.
type annotationPayload struct {
	Meta     AnnotationMeta `json:"meta"`
	Branches []branch       `json:"branches"`
}

func (s *Store) annotationPath(digest string) string {
	return filepath.Join(s.dir, "annotations", shard(digest), digest+".json")
}

// PutAnnotations writes p's diverge table, profiled by profiler
// (profile.Options.Key) on the training program with hash trainHash.
// The write is atomic, as Put's is.
func (s *Store) PutAnnotations(trainHash, profiler string, p *prog.Program) error {
	m := AnnotationMeta{TrainHash: trainHash, Profile: profiler}
	pl := annotationPayload{Meta: m, Branches: []branch{}}
	for _, pc := range p.DivergePCs() {
		d := p.DivergeAt(pc)
		pl.Branches = append(pl.Branches, branch{PC: pc, CFMs: d.CFMs, Class: d.Class, ExitThreshold: d.ExitThreshold, Loop: d.Loop})
	}
	digest := m.Digest()
	return writeObject(s.annotationPath(digest), digest, pl)
}

// Annotations returns the diverge table stored for (trainHash,
// profiler). A missing object is an error satisfying errors.Is(err,
// fs.ErrNotExist). Any other error means the object was there but failed
// validation (truncation, checksum mismatch, version skew, undecodable,
// misfiled, or a malformed table); it has been removed, so the slot
// heals on the next PutAnnotations. The table's legality against the
// program is the caller's to check.
func (s *Store) Annotations(trainHash, profiler string) (map[uint64]*prog.Diverge, error) {
	digest := AnnotationMeta{TrainHash: trainHash, Profile: profiler}.Digest()
	path := s.annotationPath(digest)
	table, err := readAnnotations(path, digest)
	if err != nil && !os.IsNotExist(err) {
		os.Remove(path)
	}
	return table, err
}

// readAnnotations reads and fully validates one annotation object filed
// under digest.
func readAnnotations(path, digest string) (map[uint64]*prog.Diverge, error) {
	var pl annotationPayload
	if err := readEnvelope(path, &pl); err != nil {
		return nil, err
	}
	if pl.Meta.Digest() != digest {
		return nil, fmt.Errorf("store: annotation object misfiled under %s", digest)
	}
	table := make(map[uint64]*prog.Diverge, len(pl.Branches))
	for i, b := range pl.Branches {
		if i > 0 && b.PC <= pl.Branches[i-1].PC {
			return nil, fmt.Errorf("store: annotation rows out of order at pc %d", b.PC)
		}
		// The profiler marks only the two diverge classes.
		if b.Class != prog.ClassSimpleHammock && b.Class != prog.ClassComplexDiverge {
			return nil, fmt.Errorf("store: pc %d: class %d is not a diverge class", b.PC, b.Class)
		}
		table[b.PC] = &prog.Diverge{CFMs: b.CFMs, Class: b.Class, ExitThreshold: b.ExitThreshold, Loop: b.Loop}
	}
	return table, nil
}
