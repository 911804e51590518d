package profile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"dmp/internal/profile"
	"dmp/internal/workload"
)

// Pinned diverge tables. tablesVersion is the profile.Version the hash
// was taken at; the two change together.
const (
	tablesVersion = 1
	tablesSHA256  = "4ad4ce474b4684d3c5c5b4d0ee020d91fae7154fb34a2ea6f0a7a12825ffe41f"
)

// TestProfileTablesPinned pins a SHA-256 over the diverge tables the
// training profile produces for every benchmark at scale 1: first each
// table without its loop marks, then the whole table. That is the hash
// the profiler's earlier plain and loop-marked tables gave, so it also
// pins that the table a machine without loop diverge reads is the plain
// one. Stored tables are keyed by profile.Version, so a profiler change
// that moves any table must bump Version, or a warm store serves tables
// the current profiler would no longer produce. The test fails
// until both the Version and the pin below are updated.
func TestProfileTablesPinned(t *testing.T) {
	h := sha256.New()
	for _, bench := range workload.Names() {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		train := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: 1})
		if _, err := profile.Run(train, profile.DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		for _, loops := range []bool{false, true} {
			fmt.Fprintf(h, "%s loops=%t\n", bench, loops)
			for _, pc := range train.DivergePCs() {
				if d := train.DivergeAt(pc); loops || !d.Loop {
					fmt.Fprintf(h, "%d %v %d %d %t\n", pc, d.CFMs, d.Class, d.ExitThreshold, d.Loop)
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != tablesSHA256 {
		t.Fatalf("scale-1 diverge tables moved (sha256 %s, pinned %s): bump profile.Version, then pin the new hash and version here", got, tablesSHA256)
	}
	if profile.Version != tablesVersion {
		t.Fatalf("profile.Version is %d but the tables were pinned at version %d: pin the version here", profile.Version, tablesVersion)
	}
}

// TestOptionsKeyCoversFields changes each scalar Options field in turn:
// every one must change Key, or two option sets that mark a program
// differently would share one stored table.
func TestOptionsKeyCoversFields(t *testing.T) {
	base := profile.DefaultOptions()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		o := base
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.125)
		default:
			t.Fatalf("Options.%s: kind %v not covered; add it to Key and to this test", f.Name, v.Kind())
		}
		if o.Key() == base.Key() {
			t.Errorf("Options.%s does not change Key()", f.Name)
		}
	}
}
