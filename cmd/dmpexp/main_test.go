package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"dmp/internal/core"
	"dmp/internal/exp"
)

// Pinned scale-1 golden. goldenModelVersion is the core.ModelVersion the
// hash was taken at; the two change together.
const (
	goldenModelVersion = 1
	goldenSHA256       = "4bb1231ae1e272e1b19f0220639cc33e8506abda1e77fcd9f332098834d5ec94"
)

// TestGoldenPinned pins a SHA-256 of the scale-1 golden
// (testdata/all-scale1.golden, which CI diffs against a fresh dmpexp
// run). Stored results are keyed by core.ModelVersion, so a change that
// moves the golden must bump it, or a warm store serves numbers the
// current simulator would no longer produce. The test fails until both
// the version and the pin below are updated.
func TestGoldenPinned(t *testing.T) {
	data, err := os.ReadFile("testdata/all-scale1.golden")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 {
		t.Fatalf("scale-1 golden moved (sha256 %s, pinned %s): bump core.ModelVersion, then pin the new hash and version here", got, goldenSHA256)
	}
	if core.ModelVersion != goldenModelVersion {
		t.Fatalf("core.ModelVersion is %d but the golden was pinned at version %d: pin the version here", core.ModelVersion, goldenModelVersion)
	}
}

// TestRejectsBadSamplePoint pins that dmpexp checks the -sample-* point
// with the same rule as dmpsim -sample, at parse time: each point below
// is a usage error, and nothing is simulated before it is reported.
func TestRejectsBadSamplePoint(t *testing.T) {
	for name, args := range map[string][]string{
		"interval-ge-period":      {"-sample-period", "500", "-sample-interval", "500"},
		"warmup-overflows-period": {"-sample-period", "1000", "-sample-interval", "600", "-sample-warmup", "500"},
		"unknown-warm-mode":       {"-sample-warm-mode", "none"},
		"without-sampling":        {"-sample-period", "4000"},
	} {
		t.Run(name, func(t *testing.T) {
			exp.Reset()
			ids := []string{"table3", "sampling"}
			if name == "without-sampling" {
				ids = ids[:1]
			}
			if code := run(append(append([]string{"-scale", "1", "-bench", "mcf"}, args...), ids...)); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if hits, misses := exp.SimCounts(); hits != 0 || misses != 0 {
				t.Errorf("rejected point still simulated: %d hits, %d misses", hits, misses)
			}
		})
	}
}
