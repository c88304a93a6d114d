package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncfd/internal/chen"
	"asyncfd/internal/core"
	"asyncfd/internal/fd"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/raceflag"
	"asyncfd/internal/wire"
)

// collector accumulates deliveries.
type collector struct {
	mu  sync.Mutex
	got []any
	ch  chan struct{}
}

func newCollector() *collector { return &collector{ch: make(chan struct{}, 64)} }

func (c *collector) Deliver(_ ident.ID, payload any) {
	c.mu.Lock()
	c.got = append(c.got, payload)
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestNewRequiresHandler(t *testing.T) {
	if _, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0"}); err == nil {
		t.Error("missing handler accepted")
	}
}

func TestNewRefusesInvalidSelf(t *testing.T) {
	if tr, err := New(Config{Self: ident.Nil, ListenAddr: "127.0.0.1:0", Handler: newCollector()}); err == nil {
		tr.Close()
		t.Error("Self = ident.Nil accepted: its hello would be a 64-bit uvarint no peer can take for an identity")
	}
}

func TestSendReceive(t *testing.T) {
	colA, colB := newCollector(), newCollector()
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: colA})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Handler: colB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())
	b.AddPeer(0, a.Addr())

	a.Send(1, heartbeat.Message{From: 0, Seq: 42})
	select {
	case <-colB.ch:
	case <-time.After(3 * time.Second):
		t.Fatal("delivery timed out")
	}
	colB.mu.Lock()
	m, ok := colB.got[0].(heartbeat.Message)
	colB.mu.Unlock()
	if !ok || m.Seq != 42 || m.From != 0 {
		t.Fatalf("got %+v", colB.got)
	}

	// Reverse direction (b dials its own connection).
	b.Send(0, heartbeat.Message{From: 1, Seq: 7})
	select {
	case <-colA.ch:
	case <-time.After(3 * time.Second):
		t.Fatal("reverse delivery timed out")
	}
}

func TestSendToUnknownPeerDropped(t *testing.T) {
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send(9, heartbeat.Message{From: 0, Seq: 1}) // no peer registered: no panic
	a.Send(1, "unencodable")                      // unsupported payload: no panic
	if s := a.Stats(); s.FramesDropped == 0 {
		t.Error("unknown-peer send not counted as dropped")
	}
}

func TestTimerAndClose(t *testing.T) {
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{})
	a.After(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("timer did not fire")
	}
	tm := a.After(time.Hour, func() { t.Error("must not fire") })
	if !tm.Stop() {
		t.Error("Stop pending = false")
	}
	if tm.Stop() {
		t.Error("second Stop = true")
	}
	if err := a.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if a.After(time.Millisecond, func() {}).Stop() {
		t.Error("After on closed transport returned live timer")
	}
}

// TestDeadlines: a slot set again fires once, at its new time; a cleared one
// never; and a slot set from its own callback fires again.
func TestDeadlines(t *testing.T) {
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fired := make(chan int, 8)
	var d node.Deadlines
	again := true
	d = a.Deadlines(3, func(slot int) {
		fired <- slot
		if slot == 2 && again {
			again = false
			d.Set(2, time.Millisecond)
		}
	})
	a.Do(func() {
		d.Set(0, time.Hour)
		d.Set(0, time.Millisecond) // pulled forward
		d.Set(1, time.Millisecond)
		d.Clear(1)
		d.Set(2, 5*time.Millisecond)
	})
	var got []int
	for len(got) < 3 {
		select {
		case slot := <-fired:
			got = append(got, slot)
		case <-time.After(2 * time.Second):
			t.Fatalf("fired %v, want slots 0, 2 and 2 again", got)
		}
	}
	if got[0] != 0 || got[1] != 2 || got[2] != 2 {
		t.Errorf("fired %v, want [0 2 2]", got)
	}
	select {
	case slot := <-fired:
		t.Errorf("slot %d fired again", slot)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestDeadlinesRaceClose sets and clears slots from other goroutines while
// Close runs: under -race nothing is reported, and no callback runs after
// Close has returned.
func TestDeadlinesRaceClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
		if err != nil {
			t.Fatal(err)
		}
		var closed, late atomic.Bool
		d := a.Deadlines(4, func(int) {
			if closed.Load() {
				late.Store(true)
			}
		})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					slot := (g + i) % 4
					a.Do(func() {
						if i%3 == 2 {
							d.Clear(slot)
						} else {
							d.Set(slot, time.Duration(i%4)*100*time.Microsecond)
						}
					})
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		wg.Wait()
		time.Sleep(2 * time.Millisecond) // any slot set after Close would be due by now
		if late.Load() {
			t.Fatal("a deadline callback ran after Close returned")
		}
	}
}

// TestCloseStopsFarTimeouts: Close returns at once while a deadline slot or
// an After is set an hour out, and neither fires after it has returned.
func TestCloseStopsFarTimeouts(t *testing.T) {
	for _, far := range []string{"a slot", "an After"} {
		a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
		if err != nil {
			t.Fatal(err)
		}
		if far == "a slot" {
			d := a.Deadlines(2, func(int) { t.Error("a slot fired") })
			a.Do(func() {
				d.Set(0, time.Millisecond)
				d.Clear(0)
				d.Set(1, time.Hour)
			})
		} else {
			a.After(time.Hour, func() { t.Error("the After fired") })
		}
		start := time.Now()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("with %s an hour out, Close took %v, want within 100ms", far, took)
		}
		time.Sleep(5 * time.Millisecond) // the cleared slot's time has passed
	}
}

// BenchmarkDeadlinesSet is the tcpnet row of the layer ledger
// (docs/BENCHMARKS.md): a table of 1 024 slots an hour out, each pushed back
// in turn, as a heartbeat monitor of 1 024 peers pushes back the deadline of
// the peer it heard from. "push-back" sets the slot set longest ago, which
// links it at the tail of the table's list; "jitter" adds to each time a
// seeded ±Δ/8 around an advance of Δ per turn of the 1 024 slots (Δ = 1 s),
// as BenchmarkRearm/table-jitter in internal/des does, so that most Sets land
// below the tail and walk back past the keys later than theirs. No slot
// falls due while it runs.
func BenchmarkDeadlinesSet(b *testing.B) {
	const (
		slots    = 1024
		interval = time.Second
	)
	r := rand.New(rand.NewSource(1))
	jitter := make([]time.Duration, 1<<12)
	for j := range jitter {
		jitter[j] = time.Duration(r.Int63n(int64(interval/4))) - interval/8
	}
	for _, variant := range []string{"push-back", "jitter"} {
		b.Run(variant, func(b *testing.B) {
			b.ReportAllocs()
			a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			d := a.Deadlines(slots, func(int) { b.Error("a slot fired") })
			wait := func(int) time.Duration { return time.Hour }
			if variant == "jitter" {
				wait = func(i int) time.Duration {
					return time.Hour + time.Duration(i)*interval/slots + jitter[i%len(jitter)]
				}
			}
			for i := 0; i < 8*slots; i++ {
				d.Set(i%slots, wait(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Set(i%slots, wait(8*slots+i))
			}
		})
	}
}

// TestAllocsDeadlinesSet locks the push-back: setting again the slot of a
// table set longest ago allocates nothing.
func TestAllocsDeadlinesSet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const slots = 1024
	d := a.Deadlines(slots, func(int) { t.Error("a slot fired") })
	i := 0
	pushBack := func() {
		d.Set(i%slots, time.Hour)
		i++
	}
	for i < 2*slots {
		pushBack()
	}
	if allocs := testing.AllocsPerRun(1000, pushBack); allocs != 0 {
		t.Errorf("a push-back: %v allocations, want 0", allocs)
	}
}

// stalledListener accepts connections, reads their hello, then stops reading
// forever — a peer whose application has wedged while the socket stays open.
func stalledListener(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			// Never read: the kernel buffers fill and writes stall.
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// bigPayload is a ~60 KB frame, large enough that a handful of them
// overwhelm the loopback socket buffers of a stalled reader.
func bigPayload() heartbeat.VectorMessage {
	return heartbeat.VectorMessage{From: 0, Vector: make([]uint64, 60_000)}
}

// TestStalledPeerDoesNotBlockHealthySends is the regression test for the
// head-of-line blocking bug: with the old single global write mutex, one
// peer that stopped reading froze sends to every other peer. Now each
// peer has its own sender goroutine and bounded queue, so sends to
// the stalled peer drop while sends to healthy peers flow.
func TestStalledPeerDoesNotBlockHealthySends(t *testing.T) {
	colB := newCollector()
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector(), SendQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Handler: colB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	stalledAddr, stopStalled := stalledListener(t)
	defer stopStalled()

	a.AddPeer(1, b.Addr())
	a.AddPeer(2, stalledAddr)

	// Saturate the stalled peer: far more bytes than loopback buffering
	// plus the bounded queue can hold. Every Send must return promptly —
	// the bound is loose to absorb -race/GC noise; the pre-fix code blocks
	// in the kernel write forever once the socket buffers fill.
	payload := bigPayload()
	for i := 0; i < 100; i++ {
		start := time.Now()
		a.Send(2, payload)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Send to stalled peer blocked for %v", d)
		}
	}

	// Sends to the healthy peer must not be delayed by the stalled one.
	start := time.Now()
	a.Send(1, heartbeat.Message{From: 0, Seq: 1})
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Send to healthy peer blocked for %v behind a stalled peer", d)
	}
	select {
	case <-colB.ch:
	case <-time.After(3 * time.Second):
		t.Fatal("delivery to healthy peer timed out behind a stalled peer")
	}
	if s := a.Stats(); s.FramesDropped == 0 {
		t.Error("overloading a stalled peer dropped no frames")
	}
}

// TestSendDoesNotBlockOnDial is the regression test for the blocking-dial
// bug: Send used to run net.DialTimeout (up to 1s) on the caller's
// goroutine, so a heartbeat broadcast stalled (down peers × 1s). Dialing is
// now asynchronous: Send returns immediately while the dial is in flight.
func TestSendDoesNotBlockOnDial(t *testing.T) {
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	dialing := make(chan struct{}, 16)
	a.dial = func(addr string) (net.Conn, error) {
		dialing <- struct{}{}
		time.Sleep(200 * time.Millisecond) // a slow, ultimately dead network
		return nil, errors.New("unreachable")
	}
	for id := ident.ID(1); id <= 8; id++ {
		a.AddPeer(id, "203.0.113.1:9") // never dialed for real
	}

	start := time.Now()
	a.Broadcast(heartbeat.Message{From: 0, Seq: 1})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Broadcast with 8 down peers took %v; dials must be async", d)
	}
	// All eight dials run concurrently, not serially on the send path.
	deadline := time.After(time.Second)
	for i := 0; i < 8; i++ {
		select {
		case <-dialing:
		case <-deadline:
			t.Fatalf("only %d async dials started", i)
		}
	}
	// While connecting (and during the failure backoff), sends drop
	// rather than stall.
	start = time.Now()
	a.Send(1, heartbeat.Message{From: 0, Seq: 2})
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("Send while connecting took %v", d)
	}
}

// TestRedialBackoff: after a failed dial the peer is not redialed until the
// backoff elapses; sends in between drop without spawning dial goroutines.
func TestRedialBackoff(t *testing.T) {
	a, err := New(Config{
		Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector(),
		redialBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var dials atomic.Int64
	a.dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("refused")
	}
	a.AddPeer(1, "203.0.113.1:9")
	a.Send(1, heartbeat.Message{From: 0, Seq: 1})
	waitFor(t, time.Second, func() bool { return dials.Load() == 1 })
	for i := 0; i < 10; i++ {
		a.Send(1, heartbeat.Message{From: 0, Seq: uint64(i) + 2})
	}
	time.Sleep(20 * time.Millisecond)
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials during backoff = %d, want 1", n)
	}
}

// TestCloseDuringDial races Close against in-flight async dials (run under
// -race in CI).
func TestCloseDuringDial(t *testing.T) {
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 64)
	a.dial = func(addr string) (net.Conn, error) {
		started <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		return nil, errors.New("unreachable")
	}
	for id := ident.ID(1); id <= 4; id++ {
		a.AddPeer(id, "203.0.113.1:9")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a.Send(ident.ID(g%4)+1, heartbeat.Message{From: 0, Seq: uint64(i)})
			}
		}(g)
	}
	<-started // at least one dial in flight
	if err := a.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	// Sends after Close are no-ops.
	a.Send(1, heartbeat.Message{From: 0, Seq: 99})
}

// TestWriteAfterDropConn races sends against a connection closed out from
// under them (run under -race in CI): the sender's write fails, and the peer
// must be redialed.
func TestWriteAfterDropConn(t *testing.T) {
	colB := newCollector()
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector(), redialBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Handler: colB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())

	a.Send(1, heartbeat.Message{From: 0, Seq: 1})
	select {
	case <-colB.ch:
	case <-time.After(3 * time.Second):
		t.Fatal("initial delivery timed out")
	}

	// Close the connection out from under a burst of concurrent sends; the
	// race detector guards the write-after-close interleavings, and the
	// peer must recover (redial) so a marker message still gets through.
	a.mu.Lock()
	p := a.peers[1]
	a.mu.Unlock()
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	if c == nil {
		t.Fatal("no established connection to drop")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			a.Send(1, heartbeat.Message{From: 0, Seq: uint64(i) + 2})
		}
	}()
	c.Close()
	wg.Wait()
	// After the drop and its 1ms backoff, a fresh send must redial and land.
	waitFor(t, 5*time.Second, func() bool {
		a.Send(1, heartbeat.Message{From: 0, Seq: 9999})
		colB.mu.Lock()
		defer colB.mu.Unlock()
		for _, m := range colB.got {
			if hb, ok := m.(heartbeat.Message); ok && hb.Seq == 9999 {
				return true
			}
		}
		return false
	})
	if s := a.Stats(); s.Dials < 2 {
		t.Errorf("Dials = %d after the connection was closed, want a redial", s.Dials)
	}
}

// TestReconnectStorm closes and reopens receivers, each reopened one on a new
// port and registered again with AddPeer, while goroutines Send and Broadcast
// to them and to receivers that stay up; then the sender closes while they
// still send. Every frame handed to Send or Broadcast ends in FramesSent or
// FramesDropped by the time Close and the sends have returned; every reopened
// receiver is dialed again; the receivers that stay up get frames; and no
// goroutine is left once every endpoint is closed (run by CI under -race
// -count=20, because the interleavings of a write failing, a dial and Close
// show only in some schedules).
func TestReconnectStorm(t *testing.T) {
	const (
		flapping = 3 // p1..p3 are closed and reopened
		steady   = 2 // p4, p5 stay up
		rounds   = 8 // reopenings of each flapping receiver
		senders  = 4
	)
	baseline := runtime.NumGoroutine()
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector(), SendQueue: 16, redialBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	receivers := make([]*Transport, 1+flapping+steady)
	cols := make([]*collector, len(receivers))
	open := func(id int) {
		cols[id] = newCollector()
		r, err := New(Config{Self: ident.ID(id), ListenAddr: "127.0.0.1:0", Handler: cols[id]})
		if err != nil {
			t.Error(err)
			return
		}
		receivers[id] = r
		a.AddPeer(ident.ID(id), r.Addr())
	}
	for id := 1; id < len(receivers); id++ {
		open(id)
	}

	var stop atomic.Bool
	var queued atomic.Uint64
	var sendWG sync.WaitGroup
	for g := 0; g < senders; g++ {
		sendWG.Add(1)
		go func(g int) {
			defer sendWG.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for seq := uint64(0); !stop.Load(); seq++ {
				if seq%8 == 0 {
					a.Broadcast(heartbeat.Message{From: 0, Seq: seq})
					queued.Add(uint64(len(receivers) - 1))
				} else {
					a.Send(ident.ID(1+r.Intn(len(receivers)-1)), heartbeat.Message{From: 0, Seq: seq})
					queued.Add(1)
				}
				if seq%16 == 15 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(g)
	}

	// Each flapping receiver is closed and reopened in its own goroutine, and
	// each reopening waits for a frame to land on the new endpoint: a dial.
	var stormWG sync.WaitGroup
	for id := 1; id <= flapping; id++ {
		stormWG.Add(1)
		go func(id int) {
			defer stormWG.Done()
			for i := 0; i < rounds; i++ {
				receivers[id].Close()
				open(id)
				deadline := time.Now().Add(5 * time.Second)
				for cols[id].len() == 0 {
					if time.Now().After(deadline) {
						t.Errorf("p%d reopened (round %d) got no frame within 5s", id, i)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(id)
	}
	stormWG.Wait()

	if err := a.Close(); err != nil { // the senders are still sending
		t.Error(err)
	}
	stop.Store(true)
	sendWG.Wait()
	s := a.Stats()
	if got, want := s.FramesSent+s.FramesDropped, queued.Load(); got != want {
		t.Errorf("FramesSent %d + FramesDropped %d = %d, want the %d frames queued", s.FramesSent, s.FramesDropped, got, want)
	}
	if s.Dials < flapping*rounds {
		t.Errorf("Dials = %d over %d reconnects", s.Dials, flapping*rounds)
	}
	for id := flapping + 1; id < len(receivers); id++ {
		if cols[id].len() == 0 {
			t.Errorf("p%d stayed up and got no frame", id)
		}
	}
	for _, r := range receivers[1:] {
		r.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the test", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAddPeerAfterClose: AddPeer on a closed transport starts no sender
// goroutine, and a send to the peer is counted as dropped.
func TestAddPeerAfterClose(t *testing.T) {
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(1, "203.0.113.1:9")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for id := ident.ID(2); id < 10; id++ {
		a.AddPeer(id, "203.0.113.1:9")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after AddPeer on a closed transport, %d before", after, before)
	}
	a.Send(1, heartbeat.Message{From: 0, Seq: 1})
	if s := a.Stats(); s.FramesSent+s.FramesDropped != 1 {
		t.Errorf("a send after Close: FramesSent %d + FramesDropped %d, want 1", s.FramesSent, s.FramesDropped)
	}
}

// BenchmarkLoopback is the tcpnet row of the layer ledger for the send path
// (docs/BENCHMARKS.md): heartbeat frames from one transport to another over
// one loopback connection, through Send, the sender goroutine's coalesced
// Write, and the receiver's read loop and decode. The producer keeps at most
// a queue's worth of frames in flight, so none is dropped; ns/frame is the
// time from the first Send to the last delivery, per frame, and frames/write
// the coalescing the sender achieved.
func BenchmarkLoopback(b *testing.B) {
	b.ReportAllocs()
	inflight := make(chan struct{}, DefaultSendQueue) // a semaphore: a slot per frame not yet delivered
	rx, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Handler: node.HandlerFunc(func(ident.ID, any) { <-inflight })})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	tx, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	tx.AddPeer(1, rx.Addr())
	send := func(seq uint64) {
		inflight <- struct{}{}
		tx.Send(1, heartbeat.Message{From: 0, Seq: seq})
	}
	drain := func() {
		for i := 0; i < cap(inflight); i++ {
			inflight <- struct{}{}
		}
		for i := 0; i < cap(inflight); i++ {
			<-inflight
		}
	}
	send(0) // dial before the clock starts
	drain()
	s0 := tx.Stats()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		send(uint64(i) + 1)
	}
	drain()
	elapsed := time.Since(start)
	b.StopTimer()
	s := tx.Stats()
	if s.FramesDropped != s0.FramesDropped {
		b.Fatalf("%d frames dropped", s.FramesDropped-s0.FramesDropped)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(s.FramesSent-s0.FramesSent)/float64(s.Writes-s0.Writes), "frames/write")
}

// TestDuplicateInboundHello: two inbound connections claiming the same peer
// identity must both deliver and tear down cleanly (run under -race in CI).
func TestDuplicateInboundHello(t *testing.T) {
	col := newCollector()
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: col})
	if err != nil {
		t.Fatal(err)
	}
	hello := binary.AppendUvarint(nil, 7)
	frame, err := wire.Encode(heartbeat.Message{From: 7, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if err := writeFrame(c, hello); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(c, frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return col.len() == 2 })
	for _, c := range conns {
		c.Close()
	}
	if err := a.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestHelloOutOfRange: a hello that does not fit ident.ID closes the
// connection. Truncated to 32 bits it would be another process's identity
// (2³²+2 → p2) or a negative one (2³¹), and every later frame on the
// connection would be delivered under it. The largest identity still gets in.
func TestHelloOutOfRange(t *testing.T) {
	var mu sync.Mutex
	var senders []ident.ID
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: node.HandlerFunc(func(from ident.ID, _ any) {
		mu.Lock()
		senders = append(senders, from)
		mu.Unlock()
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	frame, err := wire.Encode(heartbeat.Message{From: 2, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	// greet opens a connection, sends hello and one message, and returns it.
	greet := func(hello uint64) net.Conn {
		c, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(c, binary.AppendUvarint(nil, hello)); err != nil {
			t.Fatal(err)
		}
		// The endpoint may already have hung up on the hello.
		_ = writeFrame(c, frame)
		return c
	}
	for _, hello := range []uint64{1<<32 + 2, 1 << 31, math.MaxUint64} {
		c := greet(hello)
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("hello %d: connection still open (read: %v), want it closed", hello, err)
		}
		c.Close()
	}
	c := greet(math.MaxInt32)
	defer c.Close()
	waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(senders) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if len(senders) != 1 || senders[0] != math.MaxInt32 {
		t.Errorf("deliveries came from %v, want only p%d", senders, math.MaxInt32)
	}
}

// TestFramesRejectedCounted: a frame wire.Decode refuses is counted in
// Stats.FramesRejected and not delivered, and the connection carries on: the
// valid heartbeat behind three refused frames still arrives.
func TestFramesRejectedCounted(t *testing.T) {
	col := newCollector()
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: col})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	valid, err := wire.Encode(heartbeat.Message{From: 7, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frames := [][]byte{
		binary.AppendUvarint(nil, 7),             // hello
		{0x7f},                                   // unknown kind
		append(append([]byte(nil), valid...), 0), // a heartbeat with a byte after it
		binary.AppendUvarint(binary.AppendUvarint([]byte{3}, 1<<31), 1), // a heartbeat from an id past 31 bits
		valid,
	}
	for _, f := range frames {
		if err := writeFrame(c, f); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return col.len() > 0 })
	if s := a.Stats(); s.FramesRejected != 3 || col.len() != 1 {
		t.Errorf("FramesRejected = %d with %d deliveries, want 3 and 1", s.FramesRejected, col.len())
	}
}

// FuzzHello feeds an arbitrary first frame, then one valid heartbeat frame,
// to readLoop over net.Pipe. The heartbeat is delivered, as coming from the
// hello's id, exactly when the hello is one uvarint of at most math.MaxInt32
// and nothing else; otherwise nothing is delivered and readLoop closes the
// connection on its own. It never panics. The seeds in
// testdata/fuzz/FuzzHello are the three hellos TestHelloOutOfRange refuses, a
// truncated uvarint (0x80), 2³¹−1, and 7 with a byte after it.
func FuzzHello(f *testing.F) {
	frame, err := wire.Encode(heartbeat.Message{From: 2, Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, hello []byte) {
		var from []ident.ID // written by readLoop only, read after it exits
		tr := &Transport{
			cfg:     Config{Handler: node.HandlerFunc(func(id ident.ID, _ any) { from = append(from, id) })},
			inbound: make(map[net.Conn]struct{}),
			done:    make(chan struct{}),
		}
		client, server := net.Pipe()
		defer client.Close()
		exited := make(chan struct{})
		tr.wg.Add(1)
		go func() {
			tr.readLoop(server)
			close(exited)
		}()
		id, n := binary.Uvarint(hello)
		identity := n > 0 && n == len(hello) && id <= math.MaxInt32
		// The endpoint may hang up on the hello before either write is read.
		_ = writeFrame(client, hello)
		_ = writeFrame(client, frame)
		if identity {
			client.Close() // readLoop delivers the heartbeat, then reads EOF
		}
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatalf("hello %x: the connection is still open", hello)
		}
		switch {
		case identity && (len(from) != 1 || uint64(from[0]) != id):
			t.Fatalf("hello %x (p%d): deliveries came from %v", hello, id, from)
		case !identity && len(from) != 0:
			t.Fatalf("hello %x is no identity, yet %d frames were delivered from %v", hello, len(from), from)
		}
	})
}

// FuzzReadFrame feeds an arbitrary byte stream to readFrameReuse, through one
// reused buffer, and reads frames until it errors. It never panics; every
// frame is the 1 to maxFrame bytes its length prefix announces and equals the
// stream's bytes at its offset, however the buffer grew or shrank before it; a
// zero or over-maxFrame prefix is an error before the buffer grows; and a
// stream that ends inside a prefix or a body is an error. The seeds in
// testdata/fuzz/FuzzReadFrame are a length lie, truncation in the prefix and
// in the body, a zero length, maxFrame+1, and two frames where the second is
// shorter. The maxFrame seed is built here: its megabyte body has no place in
// testdata.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, make([]byte, maxFrame)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var buf []byte
		for off := 0; ; {
			grown := cap(buf)
			frame, err := readFrameReuse(r, &buf)
			rest := stream[off:]
			if len(rest) < 4 {
				if err == nil {
					t.Fatalf("offset %d: read a %d-byte frame behind a %d-byte prefix", off, len(frame), len(rest))
				}
				return
			}
			size := binary.BigEndian.Uint32(rest)
			switch {
			case size == 0 || size > maxFrame:
				if err == nil {
					t.Fatalf("offset %d: read a %d-byte frame under the length %d", off, len(frame), size)
				}
				if cap(buf) != grown {
					t.Fatalf("offset %d: the length %d was refused after the buffer grew from %d to %d bytes", off, size, grown, cap(buf))
				}
				return
			case uint64(size) > uint64(len(rest)-4):
				if err == nil {
					t.Fatalf("offset %d: read a %d-byte frame from the %d bytes left", off, size, len(rest)-4)
				}
				return
			case err != nil:
				t.Fatalf("offset %d: the %d-byte frame was refused: %v", off, size, err)
			case !bytes.Equal(frame, rest[4:4+size]):
				t.Fatalf("offset %d: the %d-byte frame read is %d bytes that differ from the stream's", off, size, len(frame))
			}
			off += 4 + int(size)
		}
	})
}

// TestTimerSerializedWithDeliver holds the transport to node.Env's promise
// that a process's callbacks run one at a time: the handler's state below is
// unsynchronized and touched both by Deliver and by a chain of timer
// callbacks. Run on their own timer goroutines, the callbacks overlapped
// deliveries (and -race reported the counter).
func TestTimerSerializedWithDeliver(t *testing.T) {
	const msgs, ticks = 200, 200
	var (
		inside   atomic.Bool
		overlaps atomic.Int64
		count    int // unsynchronized on purpose
	)
	touch := func() {
		if inside.Swap(true) {
			overlaps.Add(1)
		}
		count++
		time.Sleep(20 * time.Microsecond)
		inside.Store(false)
	}
	delivered := make(chan struct{}, msgs)
	a, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Handler: node.HandlerFunc(func(ident.ID, any) {
		touch()
		delivered <- struct{}{}
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: 1, ListenAddr: "127.0.0.1:0", Handler: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.AddPeer(0, a.Addr())

	ticked := make(chan struct{})
	var tick func()
	left := ticks
	tick = func() {
		touch()
		if left--; left == 0 {
			close(ticked)
			return
		}
		a.After(50*time.Microsecond, tick)
	}
	a.After(0, tick)
	for i := 0; i < msgs; i++ {
		b.Send(0, heartbeat.Message{From: 1, Seq: uint64(i)})
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < msgs; i++ {
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d messages delivered", i, msgs)
		}
	}
	select {
	case <-ticked:
	case <-time.After(5 * time.Second):
		t.Fatal("the timer chain stalled")
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("a timer callback ran during a delivery %d times", n)
	}
}

// TestBroadcastEncodesOnce: a broadcast to many peers performs one encode
// and the frames reach every peer.
func TestBroadcastCoalescing(t *testing.T) {
	cols := make([]*collector, 3)
	trs := make([]*Transport, 3)
	for i := range trs {
		cols[i] = newCollector()
		tr, err := New(Config{Self: ident.ID(i), ListenAddr: "127.0.0.1:0", Handler: cols[i]})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
	}
	for i := range trs {
		for j := range trs {
			if i != j {
				trs[i].AddPeer(ident.ID(j), trs[j].Addr())
			}
		}
	}
	const rounds = 50
	for r := 0; r < rounds; r++ {
		trs[0].Broadcast(heartbeat.Message{From: 0, Seq: uint64(r)})
	}
	waitFor(t, 5*time.Second, func() bool {
		return cols[1].len() == rounds && cols[2].len() == rounds
	})
	s := trs[0].Stats()
	if s.FramesSent != 2*rounds {
		t.Errorf("FramesSent = %d, want %d", s.FramesSent, 2*rounds)
	}
	if s.Writes == 0 || s.Writes > s.FramesSent {
		t.Errorf("Writes = %d out of range (FramesSent %d)", s.Writes, s.FramesSent)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fdNode is what TestFDOverTCP drives of each detector kind.
type fdNode interface {
	node.Handler
	fd.Detector
	Start()
	Stop()
}

// asFD hands a kind's constructor result on as an fdNode.
func asFD[N fdNode](nd N, err error) (fdNode, error) { return nd, err }

// TestFDOverTCP runs every detector kind across real sockets: three processes
// on localhost; one crashes (its node stops, then its endpoint is torn down),
// and the survivors must suspect it and, once settled, only it. The nodes
// hold no lock, so every Start, Stop and read goes through Transport.Do; one
// made beside the transport's callbacks is a data race -race reports.
func TestFDOverTCP(t *testing.T) {
	const n, crashed = 3, ident.ID(2)
	const interval = 30 * time.Millisecond
	all := ident.SetOf(0, 1, 2)
	kinds := []struct {
		name  string
		build func(env node.Env) (fdNode, error)
	}{
		{"core", func(env node.Env) (fdNode, error) {
			return asFD(core.NewNode(env, core.NodeConfig{
				Detector: core.Config{Self: env.Self(), N: n, F: 1},
				Window:   20 * time.Millisecond,
				Interval: interval,
			}))
		}},
		{"heartbeat", func(env node.Env) (fdNode, error) {
			return asFD(heartbeat.NewNode(env, heartbeat.Config{Self: env.Self(), Peers: all, Interval: interval, Timeout: 10 * interval}))
		}},
		{"phiaccrual", func(env node.Env) (fdNode, error) {
			// φ's standard-deviation floor is Interval/20: at 200 ms it is
			// 10 ms, wide enough that a stall of the loopback scheduler
			// (under -race, on a loaded machine) is no suspicion.
			return asFD(phiaccrual.NewNode(env, phiaccrual.Config{Self: env.Self(), Peers: all, Interval: 200 * time.Millisecond}))
		}},
		{"chen", func(env node.Env) (fdNode, error) {
			return asFD(chen.NewNode(env, chen.Config{Self: env.Self(), Peers: all, Interval: interval, Alpha: 5 * interval}))
		}},
		{"gossip", func(env node.Env) (fdNode, error) {
			return asFD(heartbeat.NewGossipNode(env, heartbeat.Config{Self: env.Self(), Peers: all, Interval: interval, Timeout: 10 * interval}))
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			transports := make([]*Transport, n)
			nodes := make([]fdNode, n)
			for i := range transports {
				c := &cell{}
				tr, err := New(Config{Self: ident.ID(i), ListenAddr: "127.0.0.1:0", Handler: c})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				if nodes[i], err = k.build(tr); err != nil {
					t.Fatal(err)
				}
				tr.Do(func() { c.h = nodes[i] })
				transports[i] = tr
			}
			for i, tr := range transports {
				for j, peer := range transports {
					if i != j {
						tr.AddPeer(ident.ID(j), peer.Addr())
					}
				}
			}
			for i, tr := range transports {
				tr.Do(nodes[i].Start)
			}
			suspects := func(i int) (s ident.Set) {
				transports[i].Do(func() { s = nodes[i].Suspects() })
				return s
			}
			// settle waits until ok holds of both survivors' suspects.
			settle := func(what string, timeout time.Duration, ok func(ident.Set) bool) {
				t.Helper()
				for deadline := time.Now().Add(timeout); !ok(suspects(0)) || !ok(suspects(1)); time.Sleep(10 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("not within %v: %s (p0 suspects %v, p1 %v)", timeout, what, suspects(0), suspects(1))
					}
				}
			}

			time.Sleep(300 * time.Millisecond) // steady state across real sockets
			for i := range crashed {
				if s := suspects(int(i)); s.Len() != 0 {
					t.Logf("transient suspicions at steady state on p%d: %v", i, s)
				}
			}
			transports[crashed].Do(nodes[crashed].Stop)
			transports[crashed].Close()

			settle("the survivors suspect the crashed endpoint", 10*time.Second, func(s ident.Set) bool { return s.Has(crashed) })
			// A survivor may suspect another for a while (a round or two of
			// core, a late heartbeat of a timer kind); the next query or
			// heartbeat must clear it.
			settle("the survivors suspect only the crashed endpoint", 5*time.Second, func(s ident.Set) bool { return s.Equal(ident.SetOf(crashed)) })
			for i := range crashed {
				transports[i].Do(nodes[i].Stop)
			}
		})
	}
}

// cell breaks the transport↔node construction cycle.
type cell struct{ h node.Handler }

func (c *cell) Deliver(from ident.ID, payload any) {
	if c.h != nil {
		c.h.Deliver(from, payload)
	}
}
