// Package trace records timestamped suspicion transitions emitted by
// failure-detector implementations. The log keeps them in time order, ties
// in recording order, and is the raw material for all QoS metrics
// (internal/qos), which fold it in place, and for the figure-style time
// series in the experiment harness.
package trace

import (
	"fmt"
	"sort"
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

// chunkLen is the number of records a chunk of the log holds: a chunk's
// records are one 64 KiB array, and its flags one 512-byte bitset.
const chunkLen = 4096

// record is one stored event without its flag: 16 bytes on 64-bit
// platforms. The flag sits in its chunk's bitset.
type record struct {
	at       time.Duration
	observer ident.ID
	subject  ident.ID
}

// chunk holds chunkLen consecutive events of the log. Bit i%64 of
// suspected[i/64] is the flag of recs[i]. The records are an allocation of
// their own: 64 KiB is a whole number of pages, and 64 KiB plus the bitset
// would be rounded up by a page.
type chunk struct {
	recs      *[chunkLen]record
	suspected [chunkLen / 64]uint64
}

// Log accumulates events in time order: events at the same instant keep the
// order they were recorded in. It is safe for concurrent use and implements
// fd.SuspicionSink. The zero value is ready to use.
//
// An event at or after the last one appends; in simulation the kernel clock
// makes that the only case. An earlier event (racing live shards, tests) is
// inserted after every event at or before its instant. Storage is a list of
// fixed chunks, so growth allocates one chunk and copies nothing.
type Log struct {
	mu     sync.Mutex
	chunks []*chunk
	n      int
}

var _ fd.SuspicionSink = (*Log)(nil)

// OnSuspicion implements fd.SuspicionSink.
func (l *Log) OnSuspicion(at time.Duration, observer, subject ident.ID, suspected bool) {
	l.Append(Event{At: at, Observer: observer, Subject: subject, Suspected: suspected})
}

// Append records an event, as OnSuspicion does.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pos := l.n
	if pos > 0 && e.At < l.get(pos-1).At {
		// The first event later than e: everything before it is at or
		// before e's instant.
		pos = sort.Search(l.n, func(i int) bool { return l.get(i).At > e.At })
	}
	if l.n == len(l.chunks)*chunkLen {
		l.chunks = append(l.chunks, &chunk{recs: new([chunkLen]record)})
	}
	for i := l.n; i > pos; i-- {
		l.set(i, l.get(i-1))
	}
	l.n++
	l.set(pos, e)
}

// get returns event i.
func (l *Log) get(i int) Event {
	c, j := l.chunks[i/chunkLen], i%chunkLen
	r := &c.recs[j]
	return Event{At: r.at, Observer: r.observer, Subject: r.subject, Suspected: c.suspected[j/64]&(1<<(j%64)) != 0}
}

// set stores e as event i, flag bit included: a slot may still hold the bit
// of an event truncated or shifted away.
func (l *Log) set(i int, e Event) {
	c, j := l.chunks[i/chunkLen], i%chunkLen
	c.recs[j] = record{at: e.At, observer: e.Observer, subject: e.Subject}
	if e.Suspected {
		c.suspected[j/64] |= 1 << (j % 64)
	} else {
		c.suspected[j/64] &^= 1 << (j % 64)
	}
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Each calls fn with every event in time order until fn returns false. It
// holds the log's lock throughout, so fn must not call back into the log.
func (l *Log) Each(fn func(Event) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < l.n; i++ {
		if !fn(l.get(i)) {
			return
		}
	}
}

// Events returns a copy of the log in time order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, l.Len())
	l.Each(func(e Event) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Mark returns the current log length, a checkpoint for TruncateTo — the
// trace half of the simulation snapshot/fork primitive. (Mark, TruncateTo)
// rolls the log back exactly when nothing recorded after the mark is earlier
// than the last event before it, which the kernel clock guarantees in
// simulation; otherwise an earlier event is inserted before the mark and
// the truncation keeps it.
func (l *Log) Mark() int {
	return l.Len()
}

// TruncateTo drops every event past the checkpoint mark: whole chunks past
// it are released and the last one kept is trimmed. Marks beyond the current
// length are a no-op.
func (l *Log) TruncateTo(mark int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if mark < 0 || mark >= l.n {
		return
	}
	keep := (mark + chunkLen - 1) / chunkLen
	clear(l.chunks[keep:])
	l.chunks = l.chunks[:keep]
	l.n = mark
}

// FirstSuspicion returns the earliest time observer suspected subject, or
// ok=false if it never did.
func (l *Log) FirstSuspicion(observer, subject ident.ID) (at time.Duration, ok bool) {
	l.Each(func(e Event) bool {
		if e.Observer == observer && e.Subject == subject && e.Suspected {
			at, ok = e.At, true
		}
		return !ok
	})
	return at, ok
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	l.Each(func(e Event) bool {
		b.WriteString(e.String())
		b.WriteByte('\n')
		return true
	})
	return b.String()
}
