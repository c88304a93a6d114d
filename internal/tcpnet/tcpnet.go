// Package tcpnet runs the protocol nodes over real TCP sockets: a
// length-prefixed framing of the wire codec plus a tiny identity handshake.
// It is the one real-time node.Env: the same core.Node that runs on the
// simulator runs here across processes and machines (examples/quickstart),
// and it is the socket layer under the sharded live detector service
// (internal/liveshard, cmd/fdload). A node holds no lock of its own: the
// transport serializes its callbacks, and code outside them reaches the node
// through Transport.Do.
//
// The send path is built so that no peer can stall another: every peer has
// its own bounded outbound queue drained by a per-connection writer
// goroutine that coalesces queued frames into a single Write, and dialing
// happens asynchronously on a dedicated goroutine — Send never blocks on
// the network. Under overload (a peer that stops reading, a down peer being
// redialed) frames are dropped, oldest first, and counted; the asynchronous
// model makes no delivery promises and the detectors retry every period.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asyncfd/internal/deadline"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
	"asyncfd/internal/wire"
)

// maxFrame bounds incoming frames (1 MiB is far above any detector message).
const maxFrame = 1 << 20

// dialTimeout bounds one asynchronous dial attempt.
const dialTimeout = time.Second

// defaultRedialBackoff is the minimum gap between dial attempts to a peer
// whose last dial failed (prevents a dialing storm at every heartbeat while a
// peer is down).
const defaultRedialBackoff = 250 * time.Millisecond

// DefaultSendQueue is the per-peer bound on queued outbound frames (the zero
// Config.SendQueue).
const DefaultSendQueue = 128

// Config parameterizes a transport endpoint.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// ListenAddr is the TCP address to listen on (e.g. "127.0.0.1:0").
	ListenAddr string
	// Handler receives decoded messages.
	Handler node.Handler
	// SendQueue bounds the frames queued per peer while its connection is
	// busy or being dialed; the oldest frame is dropped on overflow
	// (default DefaultSendQueue).
	SendQueue int
	// ConcurrentDeliver skips the mutex that serializes Handler.Deliver
	// across connections and with the callbacks scheduled by After. The
	// node.Env contract wants per-process serialization and the protocol
	// nodes hold no lock of their own, so a protocol node under this option
	// is a data race. Set it only when the handler is internally
	// synchronized (the sharded detector service is), so one busy inbound
	// link cannot serialize ingestion from every other link.
	ConcurrentDeliver bool

	// redialBackoff replaces defaultRedialBackoff when positive (tests).
	redialBackoff time.Duration
}

// peerState is the connection lifecycle of one registered peer.
type peerState int

const (
	stateIdle peerState = iota
	stateConnecting
	stateConnected
)

// peer is the per-peer outbound endpoint: address, connection lifecycle and
// the bounded frame queue its writer goroutine drains.
type peer struct {
	id   ident.ID
	addr string

	mu       sync.Mutex
	state    peerState
	conn     net.Conn // non-nil iff state == stateConnected
	queue    [][]byte // pending frames, oldest first
	lastFail time.Time
	wake     chan struct{} // cap-1 signal: the queue became non-empty
}

// Stats are cumulative transport counters (monotone; read with Stats).
type Stats struct {
	// FramesSent counts frames handed to the kernel (post-coalescing
	// writes may carry many frames each).
	FramesSent uint64
	// FramesDropped counts frames dropped on the send path: queue
	// overflow, dial failure, redial backoff, unknown/closed peer.
	FramesDropped uint64
	// Dials and DialFails count asynchronous dial attempts and failures.
	Dials, DialFails uint64
	// Writes counts kernel Write calls (FramesSent/Writes is the achieved
	// coalescing factor).
	Writes uint64
	// FramesRejected counts inbound frames wire.Decode refused. The
	// connection stays open; the frame is not delivered.
	FramesRejected uint64
}

// Transport is one process's endpoint. It implements node.Env.
type Transport struct {
	cfg   Config
	ln    net.Listener
	start time.Time

	mu      sync.Mutex
	peers   map[ident.ID]*peer
	conns   map[net.Conn]struct{} // live outgoing connections (closed on Close)
	inbound map[net.Conn]struct{} // accepted connections (closed on Close)
	closed  bool

	deliver sync.Mutex // serializes Do, and Handler.Deliver and timer callbacks unless ConcurrentDeliver

	// dial is the dial function (swapped by tests to simulate slow or
	// hanging networks).
	dial func(addr string) (net.Conn, error)

	framesSent     atomic.Uint64
	framesDropped  atomic.Uint64
	dials          atomic.Uint64
	dialFails      atomic.Uint64
	writes         atomic.Uint64
	framesRejected atomic.Uint64

	// tables is the register of the deadline tables whose timers are set
	// (After's too), for Close to stop.
	tables map[*deadlines]struct{}

	done chan struct{}
	wg   sync.WaitGroup
}

var _ node.Env = (*Transport)(nil)

// New opens the listener and starts accepting.
func New(cfg Config) (*Transport, error) {
	if cfg.Handler == nil {
		return nil, errors.New("tcpnet: Config.Handler is required")
	}
	if !cfg.Self.Valid() {
		return nil, fmt.Errorf("tcpnet: Config.Self %d is not a process identity", int32(cfg.Self))
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = DefaultSendQueue
	}
	if cfg.redialBackoff <= 0 {
		cfg.redialBackoff = defaultRedialBackoff
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen: %w", err)
	}
	t := &Transport{
		cfg:     cfg,
		ln:      ln,
		start:   time.Now(),
		peers:   make(map[ident.ID]*peer),
		conns:   make(map[net.Conn]struct{}),
		inbound: make(map[net.Conn]struct{}),
		tables:  make(map[*deadlines]struct{}),
		dial:    dialTCP,
		done:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// AddPeer registers the address of another process.
func (t *Transport) AddPeer(id ident.ID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[id]; ok {
		p.mu.Lock()
		p.addr = addr
		p.mu.Unlock()
		return
	}
	t.peers[id] = &peer{id: id, addr: addr, wake: make(chan struct{}, 1)}
}

// Stats returns cumulative transport counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent:     t.framesSent.Load(),
		FramesDropped:  t.framesDropped.Load(),
		Dials:          t.dials.Load(),
		DialFails:      t.dialFails.Load(),
		Writes:         t.writes.Load(),
		FramesRejected: t.framesRejected.Load(),
	}
}

// Close tears the endpoint down and joins all goroutines. It stops every
// deadline table's timer (and After's), so it returns without waiting out
// timeouts still set; a timer callback already running is waited for, and
// none fires a slot after Close has returned. It must not be called from
// inside a callback (Deliver, a deadline's fire or a function scheduled by
// After): it waits for that callback to return.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	err := t.ln.Close()
	for c := range t.conns {
		c.Close()
	}
	for c := range t.inbound {
		c.Close()
	}
	for _, p := range t.peers {
		p.mu.Lock()
		p.queue = nil
		p.mu.Unlock()
	}
	for d := range t.tables {
		d.timer.Stop()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// Do runs fn under the mutex that serializes Handler.Deliver and the
// callbacks scheduled by After. It is how code outside those callbacks (a main
// starting, stopping or reading its node) reaches a node. It must not be
// called from inside a callback: the mutex is not reentrant, as with Close.
// With ConcurrentDeliver set, fn is not ordered against Deliver or timers.
func (t *Transport) Do(fn func()) {
	t.deliver.Lock()
	defer t.deliver.Unlock()
	fn()
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop consumes the hello frame then dispatches messages. The hello must
// be exactly one uvarint that fits ident.ID, or the connection is closed. The
// frame buffer is reused across reads: wire.Decode copies everything it
// returns.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	var buf []byte
	hello, err := readFrameReuse(br, &buf)
	if err != nil {
		return
	}
	from64, n := binary.Uvarint(hello)
	if n != len(hello) || from64 > math.MaxInt32 {
		return // not an identity: truncated, trailed, or somebody else's
	}
	from := ident.ID(from64)
	for {
		frame, err := readFrameReuse(br, &buf)
		if err != nil {
			return
		}
		payload, err := wire.Decode(frame)
		if err != nil {
			t.framesRejected.Add(1) // asynchronous links may be attacked
			continue
		}
		select {
		case <-t.done:
			return
		default:
		}
		if t.cfg.ConcurrentDeliver {
			t.cfg.Handler.Deliver(from, payload)
			continue
		}
		t.deliver.Lock()
		t.cfg.Handler.Deliver(from, payload)
		t.deliver.Unlock()
	}
}

// readFrameReuse reads one length-prefixed frame into *buf, growing it as
// needed; the returned slice aliases *buf and is only valid until the next
// call.
func readFrameReuse(r io.Reader, buf *[]byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size == 0 || size > maxFrame {
		return nil, fmt.Errorf("tcpnet: bad frame size %d", size)
	}
	if uint32(cap(*buf)) < size {
		*buf = make([]byte, size)
	}
	b := (*buf)[:size]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// dialTCP is the production dial function.
func dialTCP(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// appendFrame appends the length prefix and frame body to dst.
func appendFrame(dst, frame []byte) []byte {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(frame)))
	dst = append(dst, lenBuf[:]...)
	return append(dst, frame...)
}

func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, 4+len(frame)), frame))
	return err
}

// enqueue queues one encoded frame for peer p, starting a dial if the peer
// has no connection. It never blocks on the network: a full queue drops the
// oldest frame, a peer inside its redial backoff drops the new one.
func (t *Transport) enqueue(p *peer, frame []byte) {
	p.mu.Lock()
	switch p.state {
	case stateConnected, stateConnecting:
		if len(p.queue) >= t.cfg.SendQueue {
			p.queue = p.queue[1:]
			t.framesDropped.Add(1)
		}
		p.queue = append(p.queue, frame)
		if p.state == stateConnected {
			signal(p.wake)
		}
		p.mu.Unlock()
	case stateIdle:
		if !p.lastFail.IsZero() && time.Since(p.lastFail) < t.cfg.redialBackoff {
			p.mu.Unlock()
			t.framesDropped.Add(1)
			return
		}
		p.state = stateConnecting
		p.queue = append(p.queue[:0], frame)
		p.mu.Unlock()
		// Spawn the dialer under t.mu so Close's wg.Wait cannot race the
		// Add; if the transport closed meanwhile, roll the state back.
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			p.mu.Lock()
			p.state = stateIdle
			p.queue = nil
			p.mu.Unlock()
			t.framesDropped.Add(1)
			return
		}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.dialPeer(p)
	}
}

// signal makes a non-blocking send on a cap-1 wake channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// dialPeer runs one asynchronous dial attempt for p and, on success, hands
// the connection to a writer goroutine. Frames queued while connecting are
// flushed by the writer; a failed dial drops them.
func (t *Transport) dialPeer(p *peer) {
	defer t.wg.Done()
	t.dials.Add(1)
	p.mu.Lock()
	addr := p.addr
	p.mu.Unlock()
	c, err := t.dial(addr)
	if err == nil {
		hello := binary.AppendUvarint(nil, uint64(t.cfg.Self))
		if herr := writeFrame(c, hello); herr != nil {
			c.Close()
			c, err = nil, herr
		}
	}
	if err != nil {
		t.dialFails.Add(1)
		p.mu.Lock()
		p.state = stateIdle
		p.lastFail = time.Now()
		t.framesDropped.Add(uint64(len(p.queue)))
		p.queue = nil
		p.mu.Unlock()
		return
	}
	// Register the connection; if Close ran while dialing, fold back.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		p.mu.Lock()
		p.state = stateIdle
		p.queue = nil
		p.mu.Unlock()
		return
	}
	t.conns[c] = struct{}{}
	t.wg.Add(1)
	t.mu.Unlock()
	p.mu.Lock()
	p.state = stateConnected
	p.conn = c
	p.mu.Unlock()
	go t.writeLoop(p, c)
}

// writeLoop drains p's queue over c, coalescing all queued frames into one
// buffer per kernel write. It exits when the connection is replaced or
// fails, or the transport closes.
func (t *Transport) writeLoop(p *peer, c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
	}()
	buf := make([]byte, 0, 16<<10)
	for {
		p.mu.Lock()
		if p.conn != c {
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-p.wake:
				continue
			case <-t.done:
				return
			}
		}
		buf = buf[:0]
		for _, f := range batch {
			buf = appendFrame(buf, f)
		}
		if _, err := c.Write(buf); err != nil {
			t.dropConn(p, c)
			return
		}
		t.framesSent.Add(uint64(len(batch)))
		t.writes.Add(1)
	}
}

// dropConn retires a failed connection: the peer goes back to idle (with a
// redial backoff) and its queued frames are dropped.
func (t *Transport) dropConn(p *peer, c net.Conn) {
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
		p.state = stateIdle
		p.lastFail = time.Now()
		t.framesDropped.Add(uint64(len(p.queue)))
		p.queue = nil
	}
	p.mu.Unlock()
	c.Close()
}

// Self implements node.Env.
func (t *Transport) Self() ident.ID { return t.cfg.Self }

// Now implements node.Env.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// After implements node.Env as a deadline table of one slot, which fires
// on the same terms as any table's (see Deadlines).
func (t *Transport) After(after time.Duration, fn func()) node.Timer {
	d := t.Deadlines(1, func(int) { fn() }).(*deadlines)
	d.Set(0, after)
	return timer{d}
}

// timer is After's table as a node.Timer.
type timer struct{ d *deadlines }

// Stop implements node.Timer.
func (tm timer) Stop() bool { return tm.d.take(0) }

// Deadlines implements node.Env. A table keeps its set slots in a
// deadline.List, in (at, seq) order, behind one time.Timer set for a time
// never later than the least key's: only a Set whose key becomes the least
// resets the timer, so a push-back is an unlink and a link at the tail. The
// timer's callback fires every slot due when it begins, in key order, under
// the deliver mutex (unless ConcurrentDeliver), then sets the timer for the
// least key left. A timer comes due early when its slot was pushed back or
// cleared since, and is then set again or, with no slot left, not: as a
// kernel event on the simulator, it is not taken back. While set, the timer
// is in the transport's register, so that Close stops it.
func (t *Transport) Deadlines(n int, fire func(slot int)) node.Deadlines {
	d := &deadlines{t: t, fire: fire, list: deadline.NewList(n)}
	d.timer = time.AfterFunc(math.MaxInt64, d.expire)
	d.timer.Stop()
	return d
}

type deadlines struct {
	t     *Transport
	fire  func(slot int)
	timer *time.Timer

	mu   sync.Mutex // guards the rest: Set and Clear may race the callback under ConcurrentDeliver
	list deadline.List
	seq  uint64
}

func (d *deadlines) Set(slot int, after time.Duration) {
	select {
	case <-d.t.done:
		return // closed: no slot is set again
	default:
	}
	at := d.t.Now() + max(after, 0)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.list.Take(int32(slot))
	d.list.Link(int32(slot), at, d.seq)
	d.seq++
	if d.list.Head() == int32(slot) {
		d.arm(at)
	}
}

func (d *deadlines) Clear(slot int) { d.take(int32(slot)) }

// take clears slot and reports whether it was set.
func (d *deadlines) take(slot int32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.list.Take(slot)
}

// arm sets the timer for at and enters the table in the register, unless
// Close has begun. d.mu is held.
func (d *deadlines) arm(at time.Duration) {
	t := d.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.tables[d] = struct{}{}
		d.timer.Reset(at - t.Now())
	}
}

// expire is the timer's callback. Once Close has begun it does nothing;
// before, Close waits for it.
func (d *deadlines) expire() {
	t := d.t
	t.mu.Lock()
	delete(t.tables, d) // until arm sets the timer again
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.mu.Unlock()
	defer t.wg.Done()
	if !t.cfg.ConcurrentDeliver {
		t.deliver.Lock()
		defer t.deliver.Unlock()
	}
	now := t.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for head := d.list.Head(); head != deadline.None; head = d.list.Head() {
		if at, _ := d.list.Key(head); at > now {
			d.arm(at)
			return
		}
		d.list.Take(head)
		d.mu.Unlock()
		d.fire(int(head))
		d.mu.Lock()
	}
}

// Send implements node.Env: best-effort asynchronous transmission. The call
// never blocks on the network — frames are queued to the peer's writer
// goroutine (dialing asynchronously if needed) and dropped under overload
// (the asynchronous model makes no delivery-time promises; the detector
// tolerates it and the next round retries).
func (t *Transport) Send(to ident.ID, payload any) {
	frame, err := wire.Encode(payload)
	if err != nil {
		return
	}
	t.sendFrame(to, frame)
}

// sendFrame queues one already-encoded frame (shared by Send and the
// encode-once Broadcast; the frame must not be mutated afterwards).
func (t *Transport) sendFrame(to ident.ID, frame []byte) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	p, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		t.framesDropped.Add(1)
		return
	}
	t.enqueue(p, frame)
}

// Broadcast implements node.Env: the payload is encoded once and the frame
// queued to every registered peer.
func (t *Transport) Broadcast(payload any) {
	frame, err := wire.Encode(payload)
	if err != nil {
		return
	}
	t.mu.Lock()
	targets := make([]ident.ID, 0, len(t.peers))
	for id := range t.peers {
		if id != t.cfg.Self {
			targets = append(targets, id)
		}
	}
	t.mu.Unlock()
	ident.SortIDs(targets)
	for _, id := range targets {
		t.sendFrame(id, frame)
	}
}
