package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

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
