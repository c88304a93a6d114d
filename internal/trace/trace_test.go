package trace

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asyncfd/internal/ident"
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

func TestConcurrentUse(t *testing.T) {
	l := &Log{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.OnSuspicion(time.Duration(i), ident.ID(g), 0, i%2 == 0)
				_ = l.Len()
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("Len = %d, want 800", l.Len())
	}
}

// TestRecordSize pins what the log stores per event on a 64-bit platform:
// the instant and the two identities; the flag is a bit in its chunk.
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(record{}); got != 16 {
		t.Errorf("record is %d bytes, want 16", got)
	}
}

// TestOutOfOrderInsert: an event earlier than the last goes after every
// event at or before its instant, and FirstSuspicion finds the earliest
// suspicion, not the first recorded.
func TestOutOfOrderInsert(t *testing.T) {
	l := &Log{}
	l.OnSuspicion(sec(3), 0, 1, true)
	l.OnSuspicion(sec(5), 0, 1, false)
	l.OnSuspicion(sec(3), 0, 2, true)
	l.OnSuspicion(sec(1), 0, 1, true)
	want := []Event{
		{At: sec(1), Observer: 0, Subject: 1, Suspected: true},
		{At: sec(3), Observer: 0, Subject: 1, Suspected: true},
		{At: sec(3), Observer: 0, Subject: 2, Suspected: true},
		{At: sec(5), Observer: 0, Subject: 1},
	}
	if got := l.Events(); !slices.Equal(got, want) {
		t.Errorf("Events = %v, want %v", got, want)
	}
	if at, ok := l.FirstSuspicion(0, 1); !ok || at != sec(1) {
		t.Errorf("FirstSuspicion = %v,%v, want 1s", at, ok)
	}
}

// refLog is the oracle of FuzzLogMatchesReference: a plain slice, an event
// inserted after every event at or before its instant.
type refLog []Event

func (r *refLog) add(e Event) {
	i, _ := slices.BinarySearchFunc(*r, e.At, func(x Event, at time.Duration) int {
		if x.At <= at {
			return -1
		}
		return 1
	})
	*r = slices.Insert(*r, i, e)
}

func (r *refLog) truncateTo(mark int) {
	if mark >= 0 && mark < len(*r) {
		*r = (*r)[:mark]
	}
}

// matchRef holds the log to the reference: the same Len, Events and Each
// walk, and FirstSuspicion of the pair given. The log holds exactly the
// chunks its events need, and none past them.
func matchRef(t *testing.T, l *Log, ref refLog, observer, subject ident.ID) {
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
}

// runLogScript interprets data as a list of four-byte operations
// {op, a, b, c} on a log and on the reference, checked after each. A single
// event takes its pair and flag from b; a bulk run takes its flags from b
// (all suspicions, all trusts, or mixed) and its length, up to 5000, from a
// and c, so that runs cross chunk boundaries.
func runLogScript(t *testing.T, data []byte) {
	if len(data) > 4*32 {
		data = data[:4*32]
	}
	l := &Log{}
	var ref refLog
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
			ref.add(e)
		}
		switch op % 7 {
		case 0: // in order
			record(last() + time.Duration(a))
		case 1: // a tie with the a-th event from the end
			at := time.Duration(0)
			if len(ref) > 0 {
				at = ref[len(ref)-1-int(a)%len(ref)].At
			}
			record(at)
		case 2: // out of order, possibly before every event
			record(last() - time.Duration(1+int(a))*time.Duration(1+int(c)))
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
		}
		matchRef(t, l, ref, e.Observer, e.Subject)
	}
}

// FuzzLogMatchesReference drives random scripts of in-order, tied and
// out-of-order records, bulk runs across chunk boundaries, marks and
// truncations against a plain slice with stable sorted insertion. The
// committed corpus (testdata/fuzz/FuzzLogMatchesReference) is replayed by
// plain go test.
func FuzzLogMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runLogScript(t, data) })
}
