package trace

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func sampleLog() *Log {
	l := &Log{}
	l.OnSuspicion(sec(1), 0, 2, true)
	l.OnSuspicion(sec(2), 1, 2, true)
	l.OnSuspicion(sec(3), 0, 2, false)
	l.OnSuspicion(sec(5), 0, 2, true)
	return l
}

func TestLenAndEvents(t *testing.T) {
	l := sampleLog()
	if l.Len() != 4 {
		t.Errorf("Len = %d, want 4", l.Len())
	}
	evs := l.Events()
	if len(evs) != 4 || evs[0].At != sec(1) || !evs[0].Suspected {
		t.Errorf("Events = %v", evs)
	}
	// The returned slice is a copy.
	evs[0].At = 0
	if l.Events()[0].At != sec(1) {
		t.Error("Events returned aliased storage")
	}
}

func TestFirstSuspicion(t *testing.T) {
	l := sampleLog()
	at, ok := l.FirstSuspicion(0, 2)
	if !ok || at != sec(1) {
		t.Errorf("FirstSuspicion = %v,%v", at, ok)
	}
	if _, ok := l.FirstSuspicion(3, 2); ok {
		t.Error("FirstSuspicion for absent observer = true")
	}
	if _, ok := l.FirstSuspicion(0, 9); ok {
		t.Error("FirstSuspicion for absent subject = true")
	}
}

// TestAppendAndReset: Append records an event as OnSuspicion does, and
// truncating to mark 0 resets the log for reuse.
func TestAppendAndReset(t *testing.T) {
	l := &Log{}
	l.Append(Event{At: sec(1), Observer: 0, Subject: 1, Suspected: true})
	if l.Len() != 1 {
		t.Error("Append did not record")
	}
	l.TruncateTo(0)
	if l.Len() != 0 {
		t.Error("TruncateTo(0) did not clear")
	}
	l.Append(Event{At: sec(2), Observer: 1, Subject: 0})
	if evs := l.Events(); len(evs) != 1 || evs[0].At != sec(2) {
		t.Errorf("after reuse: %v", evs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: sec(2), Observer: 1, Subject: 3, Suspected: true}
	if got := e.String(); !strings.Contains(got, "suspects") || !strings.Contains(got, "p3") {
		t.Errorf("Event.String = %q", got)
	}
	e.Suspected = false
	if got := e.String(); !strings.Contains(got, "trusts") {
		t.Errorf("Event.String = %q", got)
	}
}

func TestLogString(t *testing.T) {
	l := sampleLog()
	s := l.String()
	if strings.Count(s, "\n") != 4 {
		t.Errorf("String = %q", s)
	}
}

// TestRecordSize pins what the log stores per event on a 64-bit platform:
// 8 bytes in a narrow chunk (an offset from its block's base and two 16-bit
// ids), 16 in a wide one (the instant and the two identities); the flag is
// a bit in its block's word.
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(slim{}); got != 8 {
		t.Errorf("a narrow record is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(record{}); got != 16 {
		t.Errorf("a wide record is %d bytes, want 16", got)
	}
}

// TestAllocsLogRecord: 4096 in-order events into a fresh log cost one
// chunk's allocations — the chunk list, the chunk with its block words and
// the 32 KiB of 8-byte records — and nothing per event.
func TestAllocsLogRecord(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	const runs = 10
	logs := make([]Log, runs+2) // AllocsPerRun runs once more to warm up
	next := 0
	fill := func() {
		l := &logs[next]
		next++
		for i := 0; i < chunkLen; i++ {
			l.OnSuspicion(time.Duration(i)*time.Millisecond, ident.ID(i%32), ident.ID(i/32%32), i%2 == 0)
		}
	}
	if got := testing.AllocsPerRun(runs, fill); got != 3 {
		t.Errorf("4096 events allocate %v times, want 3: the chunk list, the chunk, its records", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	records := uint64(chunkLen * unsafe.Sizeof(slim{}))
	if got := after.TotalAlloc - before.TotalAlloc; got < records || got > records+2048 {
		t.Errorf("4096 events allocate %d B, want the %d B of records and at most 2048 B besides", got, records)
	}
}

// TestAppendEarlierPanics: a tie with the last event appends, an event
// earlier than it panics naming both instants and leaves the log as it was,
// and after a truncation the last kept event is the one to compare with.
func TestAppendEarlierPanics(t *testing.T) {
	l := &Log{}
	l.OnSuspicion(sec(3), 0, 1, true)
	l.OnSuspicion(sec(5), 0, 1, false)
	l.OnSuspicion(sec(5), 0, 2, true)
	want := l.Events()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if msg != "trace: event at 4s appended after one at 5s" {
				t.Errorf("Append at 4s after 5s: panic %q", msg)
			}
		}()
		l.OnSuspicion(sec(4), 0, 1, true)
	}()
	if got := l.Events(); !slices.Equal(got, want) {
		t.Errorf("after the refused Append: Events = %v, want %v", got, want)
	}
	l.TruncateTo(1)
	l.OnSuspicion(sec(4), 0, 1, false)
	if got := l.Events(); len(got) != 2 || got[1].At != sec(4) {
		t.Errorf("after TruncateTo(1) and an Append at 4s: Events = %v", got)
	}
}

// refLog is the oracle of FuzzLogMatchesReference: a plain slice.
type refLog []Event

func (r *refLog) truncateTo(mark int) {
	if mark >= 0 && mark < len(*r) {
		*r = (*r)[:mark]
	}
}

// matchRef holds the log to the reference: the same Len, Events and Each
// walk, and FirstSuspicion of the pair given. The log holds exactly the
// chunks its events need, and none past them; and none of them is wide when
// narrow says that every event recorded since the log was last empty fits
// in 8 bytes (see narrowing), so that a needless widen fails.
func matchRef(t *testing.T, l *Log, ref refLog, observer, subject ident.ID, narrow bool) {
	t.Helper()
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, reference %d", l.Len(), len(ref))
	}
	if got := l.Events(); !slices.Equal(got, ref) {
		i := 0
		for i < min(len(got), len(ref)) && got[i] == ref[i] {
			i++
		}
		t.Fatalf("Events differ first at %d of %d", i, len(ref))
	}
	i := 0
	l.Each(func(e Event) bool {
		if e != ref[i] {
			t.Fatalf("Each: event %d = %v, reference %v", i, e, ref[i])
		}
		i++
		return true
	})
	if i != len(ref) {
		t.Fatalf("Each walked %d events, reference %d", i, len(ref))
	}
	var want time.Duration
	wantOK := false
	for _, e := range ref {
		if e.Observer == observer && e.Subject == subject && e.Suspected {
			want, wantOK = e.At, true
			break
		}
	}
	if got, ok := l.FirstSuspicion(observer, subject); got != want || ok != wantOK {
		t.Fatalf("FirstSuspicion(%v, %v) = %v,%v, reference %v,%v", observer, subject, got, ok, want, wantOK)
	}
	if held := (len(ref) + chunkLen - 1) / chunkLen; len(l.chunks) != held {
		t.Fatalf("%d events in %d chunks, want %d", len(ref), len(l.chunks), held)
	}
	for _, c := range l.chunks[len(l.chunks):cap(l.chunks)] {
		if c != nil {
			t.Fatal("a chunk past the log is still referenced")
		}
	}
	for i, c := range l.chunks {
		if (c.wide == nil) == (c.narrow == nil) {
			t.Fatalf("chunk %d holds both record arrays or neither, want one", i)
		}
		if narrow && c.wide != nil {
			t.Fatalf("chunk %d of %d is wide, though every event since the log was last empty fits narrow", i, len(l.chunks))
		}
	}
}

// narrowing tracks whether every event recorded into a log since it was
// last empty fits in 8 bytes, by the test's own reading of the layout's
// contract: ids in [0, 2¹⁶), and an instant within 2³¹ ns of its block's
// base, which for block k is the instant of event 64k (a truncation to
// below 64k makes the next event 64k the block's first again).
type narrowing bool

// recorded accounts for the reference's last event.
func (n *narrowing) recorded(ref refLog) {
	i := len(ref) - 1
	e := ref[i]
	off := e.At - ref[i-i%64].At
	*n = (*n || i == 0) && uint32(e.Observer) < 1<<16 && uint32(e.Subject) < 1<<16 && off <= math.MaxInt32
}

// runLogScript interprets data as a list of four-byte operations
// {op, a, b, c} on a log and on the reference, checked after each. Every
// event is recorded at or after the last, as the log's one writer records.
// A single event takes its pair and flag from b; a bulk run takes its flags
// from b (all suspicions, all trusts, or mixed) and its length, up to 5000,
// from a and c, so that runs cross chunk boundaries. Ops 7 to 9 reach the
// edges of the 8-byte layout: an id outside 16 bits, a gap of up to 2³³ ns,
// and an instant up to 2⁴⁰ ns past the first event of the last block.
func runLogScript(t *testing.T, data []byte) {
	if len(data) > 4*32 {
		data = data[:4*32]
	}
	l := &Log{}
	var ref refLog
	var narrow narrowing // set by the first event into an empty log
	mark := 0
	last := func() time.Duration {
		if len(ref) == 0 {
			return 0
		}
		return ref[len(ref)-1].At
	}
	for ops := data; len(ops) >= 4; ops = ops[4:] {
		op, a, b, c := ops[0], ops[1], ops[2], ops[3]
		e := Event{Observer: ident.ID(b & 3), Subject: ident.ID(b >> 2 & 3), Suspected: b&16 != 0}
		record := func(at time.Duration) {
			e.At = at
			l.OnSuspicion(e.At, e.Observer, e.Subject, e.Suspected)
			ref = append(ref, e)
			narrow.recorded(ref)
		}
		switch op % 10 {
		case 0: // in order
			record(last() + time.Duration(a))
		case 1: // a tie with the last event
			record(last())
		case 2: // in order, 1 to 2¹⁶ ns on
			record(last() + time.Duration(1+int(a))*time.Duration(1+int(c)))
		case 3: // a bulk run in order, ties included
			at := last()
			for i := 0; i < (int(a)<<8|int(c))%5001; i++ {
				at += time.Duration(i % 2)
				ev := Event{At: at, Observer: ident.ID(i % 3), Subject: ident.ID(i % 5)}
				switch b % 3 {
				case 0:
					ev.Suspected = true
				case 2:
					ev.Suspected = (i*2654435761)>>7&1 != 0
				}
				l.Append(ev)
				ref = append(ref, ev)
				narrow.recorded(ref)
			}
		case 4:
			mark = l.Mark()
		case 5:
			l.TruncateTo(mark)
			ref.truncateTo(mark)
		case 6: // near the a-th chunk boundary
			m := int(a)%(len(ref)/chunkLen+2)*chunkLen + int(int8(c))
			l.TruncateTo(m)
			ref.truncateTo(m)
		case 7: // in order, the observer (c even) or the subject given an id
			// that does not fit 16 bits, or the largest that does
			id := [...]ident.ID{ident.Nil, 1 << 16, math.MaxInt32, 1<<16 - 1}[a%4]
			if c%2 == 0 {
				e.Observer = id
			} else {
				e.Subject = id
			}
			record(last() + time.Duration(c))
		case 8: // in order after a long gap: 2³² ns at a = 0x80, 2³¹ − 1 at
			// a = 0x40, c = 0xff; a tie at a = 0 and c ≥ 0x80
			record(last() + max(time.Duration(a)<<25+time.Duration(int8(c)), 0))
		case 9: // 1 to 2⁴⁰ ns past the first event of the last block, or a
			// tie with the last event if that is later
			first := time.Duration(0)
			if len(ref) > 0 {
				first = ref[(len(ref)-1)/64*64].At
			}
			record(max(last(), first+time.Duration(1+int(a))<<(c%33)))
		}
		matchRef(t, l, ref, e.Observer, e.Subject, bool(narrow))
	}
}

// FuzzLogMatchesReference drives random scripts of time-ordered and tied
// records, bulk runs across chunk boundaries, marks and truncations, ids and
// gaps that widen a chunk, against a plain slice appended to. Three seeds
// (insert_before_block_first, insert_shifts_across_far_base,
// out_of_order_across_chunk_boundary) are named for the earlier records
// ops 1, 2 and 9 made when the log still inserted them; they drive those
// ops in time order now. The committed corpus
// (testdata/fuzz/FuzzLogMatchesReference) is replayed by plain go test.
func FuzzLogMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runLogScript(t, data) })
}
