package exp

import (
	"bytes"
	"fmt"
	"testing"

	"asyncfd/internal/stats"
)

// fork_diff_test.go is the experiment-level half of the warm-fork
// differential harness: running every replicated cell by restoring a
// checkpoint of the family's warmed prefix (the default) must be
// indistinguishable from re-simulating the prefix per replicate — every
// table byte and every asyncfd-bench/v2 metric row, at any worker-pool size.
// The kernel-level half is FuzzForkEquivalence in internal/des.

// forkFingerprint renders the entire quick sweep — all experiments' tables
// plus their v2 rows — into one byte string under the given replication mode
// (fork > 0 checkpointed, fork < 0 serial) and worker-pool size.
func forkFingerprint(t *testing.T, fork, parallel int) string {
	t.Helper()
	results, err := RunResults(Experiments(), Options{
		Quick:    true,
		Seed:     1,
		serial:   fork < 0,
		Parallel: parallel,
		Repeat:   3, // exercise restores: replicates 1 and 2 both roll back
		Samples:  &stats.Collector{},
	})
	if err != nil {
		t.Fatalf("RunResults(fork=%d, parallel=%d): %v", fork, parallel, err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		if err := r.Table.Render(&buf); err != nil {
			t.Fatalf("render %s: %v", r.ID, err)
		}
		for _, row := range r.Rows {
			fmt.Fprintf(&buf, "%s %s %s n=%d mean=%v stderr=%v ci95=%v p50=%v p99=%v min=%v max=%v\n",
				r.ID, row.Cell, row.Metric, row.N, row.Mean, row.StdErr, row.CI95, row.P50, row.P99, row.Min, row.Max)
		}
	}
	return buf.String()
}

// TestSweepByteIdenticalAcrossForkModes runs the full quick sweep with warm
// forking on and off at -parallel 1 and -parallel 8 and asserts the rendered
// tables and v2 rows are byte-identical in all four combinations. This is
// the acceptance bar for forking being the default: restoring a checkpoint
// is a pure performance knob, never a behavior change.
func TestSweepByteIdenticalAcrossForkModes(t *testing.T) {
	baseline := forkFingerprint(t, -1, 1)
	if baseline == "" {
		t.Fatal("empty sweep fingerprint")
	}
	for _, tc := range []struct {
		name     string
		fork     int
		parallel int
	}{
		{"fork/parallel=1", 1, 1},
		{"serial/parallel=8", -1, 8},
		{"fork/parallel=8", 1, 8},
	} {
		if got := forkFingerprint(t, tc.fork, tc.parallel); got != baseline {
			t.Errorf("%s: sweep output differs from serial/parallel=1 baseline\n%s",
				tc.name, firstDiffLine(baseline, got))
		}
	}
}

// firstDiffLine locates the first differing line of two fingerprints, so a
// failure names the experiment/cell instead of dumping two full sweeps.
func firstDiffLine(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  baseline: %s\n  got:      %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: baseline %d, got %d", len(al), len(bl))
}
