// Package trace records timestamped suspicion transitions emitted by
// failure-detector implementations. The log keeps them in time order, ties
// in recording order, mostly in 8 bytes an event (an offset from a base
// kept per block of 64 events, two 16-bit ids, a flag bit), and is the raw
// material for all QoS metrics (internal/qos), which fold it in place, and
// for the figure-style time series in the experiment harness.
package trace

import (
	"fmt"
	"strings"
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

// chunkLen is the number of events a chunk of the log holds, in blocks of
// 64: each block's flags are one word, beside its base.
const chunkLen = 4096

// slim is one stored event in a narrow chunk: 8 bytes. The instant is a
// signed offset from its block's base, the identities are 16-bit ids, and
// the flag sits in its block's word.
type slim struct {
	off      int32
	observer uint16
	subject  uint16
}

// record is one stored event in a wide chunk: 16 bytes on 64-bit
// platforms, the event whole but for its flag.
type record struct {
	at       time.Duration
	observer ident.ID
	subject  ident.ID
}

// block is what a chunk keeps per 64 events: their flags, bit j%64 the flag
// of the chunk's event j, and the base their narrow offsets count from, the
// instant of the block's first event.
type block struct {
	suspected uint64
	base      time.Duration
}

// chunk holds chunkLen consecutive events of the log. It is narrow, its
// records in one 32 KiB array of slims, until an event cannot be held in 8
// bytes: an id outside [0, 2¹⁶), ident.Nil among them, or an instant 2³¹ ns
// (about 2.1 s) or more from its block's base. Then the chunk widens: its
// records are rewritten into one 64 KiB array of 16-byte records, which
// replaces the narrow one until the chunk is released. Either array is an
// allocation of its own: a whole size class or a whole number of pages,
// which the array and the blocks together would not be.
type chunk struct {
	narrow *[chunkLen]slim   // nil once wide
	wide   *[chunkLen]record // nil while narrow
	blocks [chunkLen / 64]block
}

// Log accumulates events in time order: events at the same instant keep the
// order they were recorded in. It implements fd.SuspicionSink. The zero value
// is ready to use.
//
// A Log has one writer: it takes one call at a time, each at or after the
// instant of the last, and an earlier one panics. In simulation the kernel
// clock orders every call; liveshard.Service stamps and emits its
// transitions under one lock. A Log is not safe for concurrent use, so a
// live log is read once its writer has stopped (after Service.Close).
// Storage is a list of fixed chunks, so growth allocates one chunk and
// copies nothing. A chunk keeps an event in 8 bytes while its ids fit 16
// bits and its instant lies within ±2³¹ ns of its block's base, and in 16
// bytes from the first event that does not (see chunk); every event reads
// back exactly either way.
type Log struct {
	chunks []*chunk
	n      int
	last   time.Duration // the instant of event n-1
}

var _ fd.SuspicionSink = (*Log)(nil)

// OnSuspicion implements fd.SuspicionSink.
func (l *Log) OnSuspicion(at time.Duration, observer, subject ident.ID, suspected bool) {
	l.Append(Event{At: at, Observer: observer, Subject: subject, Suspected: suspected})
}

// Append records an event, as OnSuspicion does. It panics if e is earlier
// than the last event.
func (l *Log) Append(e Event) {
	if l.n > 0 && e.At < l.last {
		panic(fmt.Sprintf("trace: event at %v appended after one at %v", e.At, l.last))
	}
	c, j := l.open(e.At)
	c.put(j, e)
	l.last = e.At
}

// open adds a slot past the last event and returns its chunk and its index
// there: a chunk is added when the last one is full, and a slot that starts
// a block takes at, the instant of the event it will hold, as the block's
// base.
func (l *Log) open(at time.Duration) (*chunk, int) {
	if l.n == len(l.chunks)*chunkLen {
		l.chunks = append(l.chunks, &chunk{narrow: new([chunkLen]slim)})
	}
	c, j := l.chunks[l.n/chunkLen], l.n%chunkLen
	if j%64 == 0 {
		c.blocks[j/64].base = at
	}
	l.n++
	return c, j
}

// get returns event i.
func (l *Log) get(i int) Event {
	c, j := l.chunks[i/chunkLen], i%chunkLen
	b := &c.blocks[j/64]
	e := Event{Suspected: b.suspected&(1<<(j%64)) != 0}
	if c.wide != nil {
		r := &c.wide[j]
		e.At, e.Observer, e.Subject = r.at, r.observer, r.subject
	} else {
		s := &c.narrow[j]
		e.At, e.Observer, e.Subject = b.base+time.Duration(s.off), ident.ID(s.observer), ident.ID(s.subject)
	}
	return e
}

// put stores e as the chunk's event j, flag bit included: a slot may still
// hold the bit of an event truncated away. An event a narrow chunk cannot
// hold widens it.
func (c *chunk) put(j int, e Event) {
	b := &c.blocks[j/64]
	if off := e.At - b.base; c.wide == nil && off == time.Duration(int32(off)) && uint32(e.Observer|e.Subject) < 1<<16 {
		c.narrow[j] = slim{off: int32(off), observer: uint16(e.Observer), subject: uint16(e.Subject)}
	} else {
		c.setWide(j, e)
	}
	if e.Suspected {
		b.suspected |= 1 << (j % 64)
	} else {
		b.suspected &^= 1 << (j % 64)
	}
}

// setWide stores e's record as the chunk's event j in the 16-byte layout,
// first rewriting every record of a narrow chunk so. Slots past the log's
// end are rewritten too; what they hold is never read.
func (c *chunk) setWide(j int, e Event) {
	if c.wide == nil {
		w := new([chunkLen]record)
		for k, s := range c.narrow {
			w[k] = record{at: c.blocks[k/64].base + time.Duration(s.off), observer: ident.ID(s.observer), subject: ident.ID(s.subject)}
		}
		c.narrow, c.wide = nil, w
	}
	c.wide[j] = record{at: e.At, observer: e.Observer, subject: e.Subject}
}

// each calls fn with the chunk's first m events in order until fn returns
// false, and reports whether it did not. The layout is decided once a
// chunk, and a narrow block's base and flags are loaded once, so an event
// costs fn's call and its decoding alone.
func (c *chunk) each(m int, fn func(Event) bool) bool {
	if c.wide != nil {
		for j, r := range c.wide[:m] {
			if !fn(Event{At: r.at, Observer: r.observer, Subject: r.subject, Suspected: c.blocks[j/64].suspected>>(j%64)&1 != 0}) {
				return false
			}
		}
		return true
	}
	for k := 0; k*64 < m; k++ {
		b := c.blocks[k]
		for j, s := range c.narrow[k*64 : min(m, k*64+64)] {
			if !fn(Event{At: b.base + time.Duration(s.off), Observer: ident.ID(s.observer), Subject: ident.ID(s.subject), Suspected: b.suspected>>j&1 != 0}) {
				return false
			}
		}
	}
	return true
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return l.n }

// Each calls fn with every event in time order until fn returns false.
func (l *Log) Each(fn func(Event) bool) {
	for i, c := range l.chunks {
		if !c.each(min(l.n-i*chunkLen, chunkLen), fn) {
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
// trace half of the simulation snapshot/fork primitive.
func (l *Log) Mark() int { return l.n }

// TruncateTo drops every event past the checkpoint mark: whole chunks past
// it are released and the last one kept is trimmed, as wide as it was. Marks
// beyond the current length are a no-op.
func (l *Log) TruncateTo(mark int) {
	if mark < 0 || mark >= l.n {
		return
	}
	keep := (mark + chunkLen - 1) / chunkLen
	clear(l.chunks[keep:])
	l.chunks = l.chunks[:keep]
	l.n = mark
	if mark > 0 {
		l.last = l.get(mark - 1).At
	}
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
