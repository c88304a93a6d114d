package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListPrintsSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("-list printed %d analyzers, want 4:\n%s", len(lines), out.String())
	}
	for _, want := range []string{"maprange", "walltime", "clonefields", "rngdiscipline"} {
		if !strings.Contains(out.String(), want+": ") {
			t.Errorf("-list output missing analyzer %q", want)
		}
	}
}

func TestUnknownAnalyzerIsDriverError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("run(-only nosuch) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr %q does not name the unknown analyzer", errb.String())
	}
}

// TestSelfIsClean lints this package through the real go-list pipeline: the
// command tree is classified Live, carries no Snapshot methods, and must come
// back clean.
func TestSelfIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("run(.) = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected findings:\n%s", out.String())
	}
}
