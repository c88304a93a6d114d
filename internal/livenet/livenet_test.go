package livenet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncfd/internal/core"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
	"asyncfd/internal/trace"
)

func TestDelivery(t *testing.T) {
	n := New(Config{MinDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
	defer n.Close()

	var mu sync.Mutex
	var got []any
	done := make(chan struct{}, 1)
	n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	n.AddNode(1, node.HandlerFunc(func(from ident.ID, payload any) {
		mu.Lock()
		got = append(got, payload)
		mu.Unlock()
		select {
		case done <- struct{}{}:
		default:
		}
	}))
	n.nodes[0].Send(1, "hello")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "hello" {
		t.Errorf("got = %v", got)
	}
}

func TestBroadcastAndCrash(t *testing.T) {
	n := New(Config{MinDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond})
	defer n.Close()

	var count0, count2 atomic.Int64
	n.AddNode(0, node.HandlerFunc(func(ident.ID, any) { count0.Add(1) }))
	env1 := n.AddNode(1, node.HandlerFunc(func(ident.ID, any) {}))
	n.AddNode(2, node.HandlerFunc(func(ident.ID, any) { count2.Add(1) }))

	n.Crash(2)
	env1.Broadcast("x")
	time.Sleep(50 * time.Millisecond)
	if count0.Load() != 1 {
		t.Errorf("node 0 received %d, want 1", count0.Load())
	}
	if count2.Load() != 0 {
		t.Error("crashed node received a broadcast")
	}
	if !n.Crashed(2) || n.Crashed(0) {
		t.Error("Crashed bookkeeping wrong")
	}
}

func TestTimerStopAndFire(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	env := n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))

	var fired atomic.Bool
	tm := env.After(time.Millisecond, func() { fired.Store(true) })
	time.Sleep(20 * time.Millisecond)
	if !fired.Load() {
		t.Error("timer did not fire")
	}
	if tm.Stop() {
		t.Error("Stop after fire = true")
	}

	var fired2 atomic.Bool
	tm2 := env.After(50*time.Millisecond, func() { fired2.Store(true) })
	if !tm2.Stop() {
		t.Error("Stop pending = false")
	}
	time.Sleep(80 * time.Millisecond)
	if fired2.Load() {
		t.Error("stopped timer fired")
	}
}

// TestTimerReset holds liveTimer to the node.Timer contract: a pending timer
// is pushed back in place; a fired, stopped or closed-over one reports false.
func TestTimerReset(t *testing.T) {
	n := New(Config{})
	env := n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))

	armed := time.Now()
	fired := make(chan time.Duration, 1)
	tm := env.After(20*time.Millisecond, func() { fired <- time.Since(armed) })
	if !tm.Reset(150 * time.Millisecond) {
		t.Fatal("Reset pending = false")
	}
	select {
	case after := <-fired:
		if after < 100*time.Millisecond {
			t.Errorf("fired %v after arming: at its old time, not 150ms after the Reset", after)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed timer did not fire")
	}
	if tm.Reset(time.Millisecond) {
		t.Error("Reset after fire = true")
	}

	stopped := env.After(time.Hour, func() { t.Error("must not fire") })
	stopped.Stop()
	if stopped.Reset(time.Millisecond) {
		t.Error("Reset after Stop = true")
	}

	pending := env.After(50*time.Millisecond, func() {})
	n.Close()
	if pending.Reset(time.Hour) {
		t.Error("Reset on a closed network = true: Close would wait for it")
	}
}

func TestCloseCancelsTimers(t *testing.T) {
	n := New(Config{})
	env := n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	var fired atomic.Bool
	env.After(100*time.Millisecond, func() { fired.Store(true) })
	n.Close() // must not hang waiting for the 100ms timer
	time.Sleep(150 * time.Millisecond)
	if fired.Load() {
		t.Error("timer fired after Close")
	}
	n.Close() // idempotent
	if env.After(time.Millisecond, func() {}).Stop() {
		t.Error("After on closed network returned a live timer")
	}
}

func TestCrashedTimersSuppressed(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	env := n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	var fired atomic.Bool
	env.After(5*time.Millisecond, func() { fired.Store(true) })
	n.Crash(0)
	time.Sleep(30 * time.Millisecond)
	if fired.Load() {
		t.Error("crashed node's timer fired")
	}
}

// TestMailboxBurstDoesNotPark is the regression test for the capacity-1
// mailbox bug: under load every delivery parked its timer goroutine on the
// mailbox send, piling up goroutines without bound. The contract now is
// that a burst of up to Config.Mailbox deliveries to one process never
// parks, and overloads beyond that are counted by Parked.
func TestMailboxBurstDoesNotPark(t *testing.T) {
	const box = 8
	n := New(Config{MinDelay: 50 * time.Microsecond, MaxDelay: 100 * time.Microsecond, Mailbox: box})
	defer n.Close()

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var got atomic.Int64
	n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	n.AddNode(1, node.HandlerFunc(func(ident.ID, any) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate // wedge the dispatcher so the mailbox actually buffers
		got.Add(1)
	}))
	sender := n.nodes[0]

	// One delivery wedges the dispatcher; up to box more fit the mailbox.
	// None of these may park.
	for i := 0; i < box+1; i++ {
		sender.Send(1, i)
	}
	<-entered
	waitUntil(t, func() bool { return n.Delivered() == box+1 })
	if p := n.Parked(); p != 0 {
		t.Fatalf("burst of %d (mailbox %d) parked %d deliveries, want 0", box+1, box, p)
	}

	// Overload past the mailbox parks, and the parks are counted.
	for i := 0; i < 4; i++ {
		sender.Send(1, 100+i)
	}
	waitUntil(t, func() bool { return n.Parked() >= 1 })

	close(gate) // drain everything
	waitUntil(t, func() bool { return got.Load() == box+1+4 })
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDefaultMailboxSized(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	env := n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	if c := cap(env.mailbox); c != DefaultMailbox {
		t.Errorf("default mailbox capacity = %d, want %d", c, DefaultMailbox)
	}
	n2 := New(Config{Mailbox: 3})
	defer n2.Close()
	env2 := n2.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	if c := cap(env2.mailbox); c != 3 {
		t.Errorf("configured mailbox capacity = %d, want 3", c)
	}
}

func TestEnvBasics(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	env := n.AddNode(7, node.HandlerFunc(func(ident.ID, any) {}))
	if env.Self() != 7 {
		t.Error("Self wrong")
	}
	if env.Now() < 0 {
		t.Error("Now negative")
	}
	env.Send(7, "self") // ignored
	env.Send(99, "ghost")
}

func TestDuplicatePanics(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	n.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
}

// TestLiveFDCluster runs the actual time-free detector on the goroutine
// runtime: 4 processes, one crashes, survivors must suspect it and only it.
func TestLiveFDCluster(t *testing.T) {
	net := New(Config{MinDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Seed: 5})
	defer net.Close()
	log := &trace.Log{}

	const n, f = 4, 1
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		cell := &handlerCell{}
		env := net.AddNode(id, cell)
		nd, err := core.NewNode(env, core.NodeConfig{
			Detector: core.Config{Self: id, N: n, F: f},
			Window:   10 * time.Millisecond,
			Interval: 20 * time.Millisecond,
			Sink:     log,
		})
		if err != nil {
			t.Fatal(err)
		}
		cell.n = nd
		nodes[i] = nd
	}
	for _, nd := range nodes {
		nd.Start()
	}

	time.Sleep(300 * time.Millisecond) // steady state
	net.Crash(3)

	deadline := time.Now().Add(5 * time.Second)
	for {
		allSuspect := true
		for i := 0; i < 3; i++ {
			if !nodes[i].IsSuspected(3) {
				allSuspect = false
			}
		}
		if allSuspect {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not suspect the crashed process; log:\n%s", log)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// No survivor may (still) suspect another survivor at the end.
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 3; i++ {
		s := nodes[i].Suspects()
		s.Remove(3)
		if !s.Empty() {
			t.Errorf("node %d wrongly suspects %v", i, s)
		}
	}
	for _, nd := range nodes {
		nd.Stop()
	}
}

type handlerCell struct{ n *core.Node }

func (c *handlerCell) Deliver(from ident.ID, payload any) {
	if c.n != nil {
		c.n.Deliver(from, payload)
	}
}
