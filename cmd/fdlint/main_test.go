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

// TestSelfIsClean lints the whole module through the real go-list pipeline,
// the run CI gates on, so a plain `go test ./...` also fails on a finding: a
// field left beside a run-state struct without a reason, an unannotated map
// range in a Sim package, a wall-clock read, a stray RNG.
func TestSelfIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"asyncfd/..."}, &out, &errb); code != 0 {
		t.Fatalf("run(asyncfd/...) = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected findings:\n%s", out.String())
	}
}
