package exp

import (
	"bytes"
	"fmt"
	"testing"

	"asyncfd/internal/des"
	"asyncfd/internal/stats"
)

// queue_diff_test.go is the experiment-level half of the DES queue
// differential harness: the kernel's calendar/ladder queue (the default)
// must be indistinguishable from the binary-heap reference across the FULL
// quick sweep — every table byte and every asyncfd-bench/v2 metric row,
// at any worker-pool size.

// sweepFingerprint renders the entire quick sweep — all 17 experiments'
// tables plus their v2 rows — into one byte string under the given queue
// implementation and worker-pool size.
func sweepFingerprint(t *testing.T, kind des.QueueKind, parallel int) string {
	t.Helper()
	prev := des.DefaultQueue()
	des.SetDefaultQueue(kind)
	defer des.SetDefaultQueue(prev)

	results, err := AllResults(Options{
		Quick:    true,
		Seed:     1,
		Parallel: parallel,
		Repeat:   2, // exercise seed families so v2 rows carry real spread
		Samples:  &stats.Collector{},
	})
	if err != nil {
		t.Fatalf("AllResults(%v, parallel=%d): %v", kind, parallel, err)
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

// TestSweepByteIdenticalAcrossQueues runs the full quick sweep under the
// heap and ladder queues at -parallel 1 and -parallel 8 and asserts the
// rendered tables and v2 rows are byte-identical in all four combinations.
// This is the acceptance bar for the ladder being the default: the queue is
// a pure performance knob, never a behavior change.
func TestSweepByteIdenticalAcrossQueues(t *testing.T) {
	baseline := sweepFingerprint(t, des.QueueHeap, 1)
	if baseline == "" {
		t.Fatal("empty sweep fingerprint")
	}
	for _, tc := range []struct {
		name     string
		kind     des.QueueKind
		parallel int
	}{
		{"ladder/parallel=1", des.QueueLadder, 1},
		{"heap/parallel=8", des.QueueHeap, 8},
		{"ladder/parallel=8", des.QueueLadder, 8},
	} {
		if got := sweepFingerprint(t, tc.kind, tc.parallel); got != baseline {
			t.Errorf("%s: sweep output differs from heap/parallel=1 baseline\n%s",
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
