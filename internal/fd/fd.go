// Package fd defines the common vocabulary of unreliable failure detectors:
// the output interface every implementation exposes, and the sink through
// which implementations report suspicion transitions to metrics and traces.
//
// Detectors are classified by the Chandra–Toueg taxonomy, whose classes pair
// a completeness property with an accuracy property: P (strong
// completeness, strong accuracy), ◇P (strong completeness, eventual strong
// accuracy), S (strong completeness, perpetual weak accuracy) and ◇S (strong
// completeness, eventual weak accuracy). ◇S is the class the paper's
// time-free protocol implements, and the weakest class with which consensus
// is solvable given a correct majority; the eventual leader oracle Ω is
// equivalent to it for that purpose.
package fd

import (
	"time"

	"asyncfd/internal/ident"
)

// Detector is the oracle output read by applications (e.g. consensus): the
// set of processes currently suspected of having crashed. The methods are
// called in the runtime's callback context (node.Env), or synchronized by the
// implementation (liveshard.Service is).
type Detector interface {
	// Suspects returns a snapshot of the currently suspected processes.
	Suspects() ident.Set
	// IsSuspected reports whether id is currently suspected.
	IsSuspected(id ident.ID) bool
}

// Restartable is implemented by detector runtimes that support the
// crash-recovery fault model: after the network layer has revived a crashed
// process, Restart brings its detector back to life and resumes its
// protocol activity. fresh=true discards all volatile detector state (the
// process rebooted without stable storage); fresh=false resumes with the
// state held at the crash (persisted-state recovery). Implementations must
// emit the suspicion transitions implied by a state reset through their
// sink, so recorded traces stay consistent with the oracle output.
type Restartable interface {
	Restart(fresh bool)
}

// SuspicionSink receives timestamped suspicion transitions from detector
// implementations. A runtime calls its sink one call at a time, each at or
// after the instant of the last: the simulator by its kernel clock, a TCP
// transport by serializing its node's callbacks, liveshard.Service under its
// output lock (so a call must not call back into the service). A sink
// shared by several runtimes (nodes on separate transports) is called
// concurrently, on clocks of their own, and must order its input itself;
// trace.Log does not.
type SuspicionSink interface {
	// OnSuspicion records that observer started (suspected=true) or
	// stopped (suspected=false) suspecting subject at time at.
	OnSuspicion(at time.Duration, observer, subject ident.ID, suspected bool)
}

// SinkFunc adapts a function to SuspicionSink.
type SinkFunc func(at time.Duration, observer, subject ident.ID, suspected bool)

// OnSuspicion implements SuspicionSink.
func (f SinkFunc) OnSuspicion(at time.Duration, observer, subject ident.ID, suspected bool) {
	f(at, observer, subject, suspected)
}
