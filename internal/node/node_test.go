package node

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
)

func TestHandlerFuncDelivers(t *testing.T) {
	var gotFrom ident.ID
	var gotPayload any
	h := HandlerFunc(func(from ident.ID, payload any) {
		gotFrom, gotPayload = from, payload
	})
	var asHandler Handler = h // HandlerFunc must satisfy Handler
	asHandler.Deliver(3, "ping")
	if gotFrom != 3 || gotPayload != "ping" {
		t.Errorf("Deliver(3, ping) recorded (%v, %v)", gotFrom, gotPayload)
	}
}

// fakeEnv is a minimal in-test Env: it runs After callbacks synchronously
// and records traffic. It pins down the Env contract shape the runtimes
// (netsim, tcpnet) must provide.
type fakeEnv struct {
	id        ident.ID
	now       time.Duration
	sent      map[ident.ID]any
	broadcast []any
}

type fakeTimer struct{ stopped bool }

func (f *fakeTimer) Stop() bool {
	was := !f.stopped
	f.stopped = true
	return was
}

func (e *fakeEnv) Self() ident.ID     { return e.id }
func (e *fakeEnv) Now() time.Duration { return e.now }
func (e *fakeEnv) After(d time.Duration, fn func()) Timer {
	e.now += d
	fn()
	return &fakeTimer{}
}
func (e *fakeEnv) Deadlines(n int, fire func(slot int)) Deadlines {
	return &fakeDeadlines{env: e, fire: fire}
}

// fakeDeadlines runs a Set slot's callback synchronously, as fakeEnv runs
// After's.
type fakeDeadlines struct {
	env  *fakeEnv
	fire func(slot int)
}

func (d *fakeDeadlines) Set(slot int, after time.Duration) {
	d.env.now += after
	d.fire(slot)
}

func (d *fakeDeadlines) Clear(int) {}

func (e *fakeEnv) Send(to ident.ID, payload any) {
	if e.sent == nil {
		e.sent = make(map[ident.ID]any)
	}
	e.sent[to] = payload
}
func (e *fakeEnv) Broadcast(payload any) { e.broadcast = append(e.broadcast, payload) }

func TestEnvContract(t *testing.T) {
	var env Env = &fakeEnv{id: 7}
	if env.Self() != 7 {
		t.Errorf("Self = %v", env.Self())
	}
	ran := false
	tm := env.After(time.Second, func() { ran = true })
	if !ran {
		t.Error("After callback not run")
	}
	if env.Now() != time.Second {
		t.Errorf("Now = %v after 1s timer", env.Now())
	}
	if !tm.Stop() {
		t.Error("first Stop = false")
	}
	if tm.Stop() {
		t.Error("second Stop = true")
	}
	var fired []int
	env.Deadlines(2, func(slot int) { fired = append(fired, slot) }).Set(1, time.Second)
	if len(fired) != 1 || fired[0] != 1 || env.Now() != 2*time.Second {
		t.Errorf("Deadlines slot 1 set for 1s: fired %v, Now = %v", fired, env.Now())
	}
	env.Send(1, "a")
	env.Broadcast("b")
	fe := env.(*fakeEnv)
	if fe.sent[1] != "a" || len(fe.broadcast) != 1 {
		t.Error("Send/Broadcast not recorded")
	}
}
