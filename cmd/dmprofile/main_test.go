package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins dmprofile's whole report for two training
// profiles, every column included: execs, taken, misp and avgdist are
// not part of the diverge tables TestProfileTablesPinned hashes.
func TestReportGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"mcf-scale1.golden":         {"-bench", "mcf", "-scale", "1"},
		"gap-scale1-postdom.golden": {"-bench", "gap", "-scale", "1", "-postdom"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit status %d: %s", args, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: report differs from testdata/%s:\n got:\n%s\nwant:\n%s", args, golden, stdout.Bytes(), want)
		}
	}
}

// TestUsageErrors pins the exit statuses of a bad invocation.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 1},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-bench", "nosuch"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || stderr.Len() == 0 {
			t.Errorf("%v: exit status %d (stderr %q), want %d with a message", c.args, code, stderr.String(), c.code)
		}
	}
}
