package des

// queue.go is the kernel's timing structure seam. The Simulator splits event
// *storage* (the slab) from event *ordering*: same-instant events drain
// through the FIFO ready bucket without ever touching a priority structure,
// fan-out nodes merge through the kernel's fan-out heap (state.fan), and
// every timer and unicast scheduled for a later instant goes through an
// eventQueue keyed by (at, seq).
//
// The kernel runs on one implementation, the ladder queue (ladder.go):
// amortized O(1) push/pop on the dense near-term horizons the experiments
// generate. The interface exists for the tests: the binary heap the kernel
// began with lives in heap_test.go as the ordering oracle, and the
// differential harness (TestQueueDifferential, FuzzQueueEquivalence,
// FuzzForkEquivalence) installs it in place of the ladder and holds the two
// to the same observable behaviour.

// eventQueue orders pending far-horizon timers and unicasts — slab indices
// keyed by (at, seq) — for the Simulator. Contract:
//
//   - push is called with an index whose at is no earlier than the
//     simulator's now at call time (fresh same-instant events go to the
//     ready bucket instead), and an index's key never mutates while queued
//     (a re-armed timer re-keys only between a pop and the following push);
//   - popMin/peekMin return the queued index with the smallest (at, seq)
//     key, or noEvent when empty — stopped and re-armed events included, so
//     Stop and Reset stay O(1); the kernel disposes of them when they
//     surface at the head (Simulator.popDue), the same way under every
//     implementation;
//   - len reports the queued element count (stopped-but-unreclaimed
//     included), used by invariant checks and tests;
//   - clone returns a deep copy of the ordering state bound to owner's slab,
//     sharing no mutable storage with the receiver — the queue's part of
//     state.copyTo. Capacity-only pools need not be copied.
type eventQueue interface {
	push(i int32)
	popMin() int32
	peekMin() int32
	len() int
	clone(owner *state) eventQueue
}
