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

// Timer is a cancelable scheduled callback.
type Timer interface {
	// Stop cancels the callback if it has not fired, reporting whether it
	// was still pending.
	Stop() bool
}

// Deadlines is a table of timeouts of one process, numbered 0 to n−1, each a
// slot that is set or clear: the one timeout per monitored peer of a
// heartbeat monitor, say, which every heartbeat pushes back. Set and Clear
// behave exactly like Stop and After on a timer per slot, so a table is what
// n timers would be, made once: re-arming a slot costs no handle, no closure
// and, on the simulator, no kernel event of its own.
type Deadlines interface {
	// Set arms slot to expire d from now, replacing the time it had if it
	// was set. When it expires the table's callback runs with the slot,
	// subject to the process being alive then, and the slot is clear again.
	Set(slot int, d time.Duration)
	// Clear disarms slot if it is set.
	Clear(slot int)
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
	// Deadlines returns a table of n clear slots whose expiries call fire
	// with the slot, on the same terms as After's callbacks.
	Deadlines(n int, fire func(slot int)) Deadlines
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
// suspicion sets, round counters — into an opaque value, and Restore rolls
// the SAME runtime instance back to it, in place. In-place matters: a
// Deadlines table's callback and in-flight deliveries captured the live
// instance, so replication rewinds it rather than building a second one. A
// snapshot must survive any number of Restores. No runtime that implements
// Cloneable keeps a Timer: its timeouts are slots of a Deadlines table, and
// what a table has set is the kernel's state, not the runtime's, so the
// kernel snapshot holds it.
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
