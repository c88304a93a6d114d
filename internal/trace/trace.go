// Package trace records timestamped suspicion transitions emitted by
// failure-detector implementations. The log is the raw material for all QoS
// metrics (internal/qos) and for the figure-style time series in the
// experiment harness.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
)

// Event is one suspicion transition: observer started/stopped suspecting
// subject at At.
type Event struct {
	At        time.Duration
	Observer  ident.ID
	Subject   ident.ID
	Suspected bool
}

// String renders the event for debugging.
func (e Event) String() string {
	verb := "suspects"
	if !e.Suspected {
		verb = "trusts"
	}
	return fmt.Sprintf("%v %v %s %v", e.At, e.Observer, verb, e.Subject)
}

// Log accumulates events. It is safe for concurrent use and implements
// fd.SuspicionSink. The zero value is ready to use.
type Log struct {
	mu     sync.Mutex
	events []Event
}

var _ fd.SuspicionSink = (*Log)(nil)

// OnSuspicion implements fd.SuspicionSink.
func (l *Log) OnSuspicion(at time.Duration, observer, subject ident.ID, suspected bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{At: at, Observer: observer, Subject: subject, Suspected: suspected})
}

// Append adds an event directly (tests, synthetic traces).
func (l *Log) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the log in recording order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Mark returns the current log length, a checkpoint for TruncateTo. The log
// is append-only during a run, so (Mark, TruncateTo) rolls it back exactly —
// the trace half of the simulation snapshot/fork primitive.
func (l *Log) Mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// TruncateTo drops every event recorded after the checkpoint mark. Marks
// beyond the current length are a no-op.
func (l *Log) TruncateTo(mark int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if mark >= 0 && mark < len(l.events) {
		l.events = l.events[:mark]
	}
}

// FirstSuspicion returns the earliest time observer suspected subject, or
// ok=false if it never did.
func (l *Log) FirstSuspicion(observer, subject ident.ID) (time.Duration, bool) {
	for _, e := range l.Events() {
		if e.Observer == observer && e.Subject == subject && e.Suspected {
			return e.At, true
		}
	}
	return 0, false
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
