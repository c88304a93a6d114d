// Package node defines the narrow runtime environment a protocol node
// executes in. The same protocol implementations (query–response detector,
// heartbeat, φ-accrual, Chen NFD-E, consensus) run unchanged on the
// deterministic simulator (internal/netsim) and on the one real-time
// runtime, TCP sockets (internal/tcpnet), because both provide this
// interface.
package node

import (
	"time"

	"asyncfd/internal/ident"
)

// Timer is a cancelable, re-armable scheduled callback.
type Timer interface {
	// Stop cancels the callback if it has not fired, reporting whether it
	// was still pending.
	Stop() bool
	// Reset re-arms a still-pending timer to fire d from now with the
	// callback it was armed with, and reports whether it did. False means
	// nothing changed and the caller must Stop and arm a new timer with
	// After: that is always the answer once the timer has fired or was
	// stopped, and a runtime may give it for a pending timer too whenever
	// re-arming in place does not suit it (the simulator's kernel cannot
	// move a timer earlier than the key it is queued under). A true Reset
	// is indistinguishable from Stop followed by After with the same
	// callback; it exists so that a timeout pushed back on every heartbeat
	// costs neither a new handle nor a new closure.
	Reset(d time.Duration) bool
}

// Env is the world as seen by one process: its identity, a clock, a
// scheduler and an unreliable asynchronous network. Message sending never
// blocks and never fails synchronously; delivery order and timing are
// arbitrary. All callbacks (scheduled functions and Deliver) are serialized
// per process by the runtime — netsim runs them on the kernel's one
// goroutine, tcpnet under one mutex per endpoint — so node implementations
// hold no lock. Code outside the callbacks (starting, stopping or reading a
// node) reaches it on the kernel's goroutine in simulation, or through
// tcpnet.Transport.Do live.
type Env interface {
	// Self returns this process's identity.
	Self() ident.ID
	// Now returns the current time (virtual in simulation, wall-clock
	// offset in live runs). Protocol logic of the time-free detector must
	// not consult it — it exists for timer-based baselines and metrics.
	Now() time.Duration
	// After schedules fn to run after d, subject to the process being
	// alive when it fires.
	After(d time.Duration, fn func()) Timer
	// Send transmits payload to one process.
	Send(to ident.ID, payload any)
	// Broadcast transmits payload to every neighbor (every other process
	// in a fully connected system). The sender does not receive its own
	// broadcast; protocols that need self-delivery handle it internally.
	Broadcast(payload any)
}

// Cloneable is the checkpoint contract a detector runtime implements to
// support warmup forking (see internal/des's Snapshot/Restore): Snapshot
// deep-copies the runtime's mutable state — per-pair estimator windows,
// suspicion sets, pending timer handles — into an opaque value, and Restore
// rolls the SAME runtime instance back to it, in place. In-place matters:
// scheduled closures and in-flight deliveries captured the live instance, so
// replication rewinds it rather than building a second one. A snapshot must
// survive any number of Restores, and timer handles it carries stay valid
// because the kernel snapshot rewinds slot generations in lockstep.
//
// The shape every implementation in this repository has: the runtime keeps
// what a run changes in one state struct, embedded beside its wiring and
// config, with one copyTo(dst) that assigns the whole value and then gives
// dst its own storage for each field that refers to some. Snapshot is
// copyTo into a new value and Restore is copyTo back out of it, so a field
// added to the struct cannot be missed by either.
type Cloneable interface {
	// Snapshot captures the runtime's mutable state.
	Snapshot() any
	// Restore rolls the runtime back to a value Snapshot returned.
	Restore(snapshot any)
}

// Handler consumes messages delivered to a process.
type Handler interface {
	// Deliver hands the process a message previously sent to it. It runs
	// on the runtime's callback context; implementations must not block.
	Deliver(from ident.ID, payload any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from ident.ID, payload any)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from ident.ID, payload any) { f(from, payload) }
