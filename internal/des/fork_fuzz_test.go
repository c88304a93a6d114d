package des

import (
	"fmt"
	"testing"
)

// fork_fuzz_test.go is the kernel-level half of the warm-fork differential
// harness (the experiment-level half is internal/exp's fork_diff_test.go): a
// byte-coded script in the FuzzQueueEquivalence op language is split at a
// fuzzer-chosen point into prefix and suffix; the simulator is snapshotted
// between the two, run to completion, restored, and the suffix replayed. The
// replay must be observationally identical — same fire order, same RNG draws,
// same Now()/Steps()/Pending() at every checkpoint — and taking the snapshot
// itself must not perturb the original run. CI runs the target with a short
// -fuzztime budget on every push; the committed seed corpus
// (testdata/fuzz/FuzzForkEquivalence) covers snapshot points amid same-instant
// ties, stopped timers, far-horizon timers, fan-outs, re-armed timers, and
// deadline tables with slots set, pushed back and not yet re-keyed, in the
// run and in the side heap.

// assertForkEquivalence runs prefix+suffix three ways on the kernel: plain
// (reference), with a snapshot taken between prefix and suffix (must not
// perturb anything), and replayed from the restored snapshot (must reproduce
// the post-snapshot trace byte for byte, twice). A fresh kernel restored
// from the snapshot must hold the same structure as the one restored in
// place.
func assertForkEquivalence(t *testing.T, prefix, suffix []byte) {
	t.Helper()

	var ref []string
	h := newScriptHarness(onKernel, &ref)
	h.interp(prefix)
	h.interp(suffix)
	h.drain()

	var full []string
	h = newScriptHarness(onKernel, &full)
	h.interp(prefix)
	s := h.s.(kernelSched)
	snap := s.Snapshot()
	cut := len(full)
	// The interpreter's own state rolls back with the kernel: the handles a
	// re-arm replaced after the snapshot must not outlive the restore.
	timers, nEvents, down := append([]scriptTimer(nil), h.timers...), h.eventID, h.sink.down.Clone()
	h.interp(suffix)
	h.drain()

	if d := firstDivergence(full, ref); d != "" {
		t.Fatalf("taking a snapshot perturbed the run at %s", d)
	}

	tail := full[cut:]
	for round := 0; round < 2; round++ {
		var replay []string
		h.out = &replay
		h.timers = append(h.timers[:0], timers...)
		h.eventID = nEvents
		h.sink.down = down.Clone()
		s.Restore(snap)
		if round == 0 {
			// A fresh kernel restored from the checkpoint — a child, with no
			// storage to reuse — holds the same structure.
			child := New(0)
			child.Restore(snap)
			if got, want := structuralFingerprint(child), structuralFingerprint(s.Simulator); got != want {
				t.Fatalf("a child restored from the checkpoint differs:\n%s\nthe restored kernel:\n%s", got, want)
			}
		}
		h.interp(suffix)
		h.drain()
		if d := firstDivergence(replay, tail); d != "" {
			t.Fatalf("restore #%d: replay diverged at %s", round+1, d)
		}
	}
}

// splitScript interprets the first byte of data as the prefix length.
func splitScript(data []byte) (prefix, suffix []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	cut := int(data[0])
	data = data[1:]
	if cut > len(data) {
		cut = len(data)
	}
	return data[:cut], data[cut:]
}

// FuzzForkEquivalence drives random op scripts with a random snapshot point
// and asserts the restored replay is byte-identical to the original
// continuation. Seeds mirror the committed corpus.
func FuzzForkEquivalence(f *testing.F) {
	for _, seed := range forkScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		prefix, suffix := splitScript(data)
		assertForkEquivalence(t, prefix, suffix)
	})
}

// forkScriptSeeds are the queue-differential seeds with snapshot points
// chosen to land amid the regression-prone shapes; committed as the fuzz
// seed corpus under testdata/fuzz/FuzzForkEquivalence.
func forkScriptSeeds() [][]byte {
	var out [][]byte
	for _, base := range queueScriptSeeds() {
		for _, cut := range []byte{0, byte(len(base) / 2), byte(len(base))} {
			out = append(out, append([]byte{cut}, base...))
		}
	}
	return out
}

// TestForkDifferential replays the seed corpus without needing -fuzz, so
// `go test` alone exercises the kernel fork harness on every run.
func TestForkDifferential(t *testing.T) {
	for i, seed := range forkScriptSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			prefix, suffix := splitScript(seed)
			assertForkEquivalence(t, prefix, suffix)
		})
	}
}
