package main

import (
	"testing"

	"dmp/internal/exp"
)

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
