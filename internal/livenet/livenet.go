// Package livenet is the real-time counterpart of netsim: an in-process
// asynchronous network where every process's handler runs on its own
// dispatcher goroutine and messages travel through randomly delayed timers.
// It exists to run the very same protocol nodes (core.Node, heartbeat.Node,
// ...) under genuine concurrency — goroutines and channels instead of a
// virtual clock — as the examples do.
//
// Concurrency contract: all goroutines are owned by the Network and joined
// by Close; per-process delivery is serialized by the dispatcher goroutine;
// handlers never run after Close returns.
package livenet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// DefaultMailbox is the default per-process mailbox capacity. Deliveries
// beyond a full mailbox park their timer goroutine until the dispatcher
// drains (counted by Parked); capacity 1 — the old behavior — parked on
// every concurrent delivery and piled up goroutines without bound under
// load.
const DefaultMailbox = 256

// Config parameterizes the live network.
type Config struct {
	// Seed seeds the delay sampler (0 = fixed default seed).
	Seed int64
	// MinDelay and MaxDelay bound the uniform per-message latency.
	// Defaults: 200µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// DropRate is the probability a message is lost (0 = reliable).
	DropRate float64
	// Mailbox is the per-process mailbox capacity (default DefaultMailbox).
	// A burst of up to Mailbox deliveries to one process never parks a
	// timer goroutine.
	Mailbox int
}

type delivery struct {
	from    ident.ID
	payload any
}

// Network is the live medium. Create with New, attach nodes with AddNode,
// then Start the protocol nodes; Close tears everything down.
type Network struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	rng     *rand.Rand
	nodes   map[ident.ID]*Env
	crashed ident.Set
	closed  bool

	done    chan struct{} // closed by Close
	pending sync.WaitGroup
	dispers sync.WaitGroup

	parked    atomic.Uint64 // deliveries that blocked on a full mailbox
	delivered atomic.Uint64 // deliveries handed to a mailbox
}

// New builds a live network.
func New(cfg Config) *Network {
	if cfg.MinDelay == 0 {
		cfg.MinDelay = 200 * time.Microsecond
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay + 2*time.Millisecond
	}
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = DefaultMailbox
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:   cfg,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make(map[ident.ID]*Env),
		done:  make(chan struct{}),
	}
}

// AddNode registers a process and spawns its dispatcher goroutine. It
// panics on duplicate ids (a wiring bug) and must not be called after Close.
func (n *Network) AddNode(id ident.ID, h node.Handler) *Env {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("livenet: AddNode after Close")
	}
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("livenet: duplicate node %v", id))
	}
	env := &Env{
		net:     n,
		id:      id,
		handler: h,
		mailbox: make(chan delivery, n.cfg.Mailbox),
	}
	n.nodes[id] = env
	n.dispers.Add(1)
	go env.dispatch(&n.dispers)
	return env
}

// Parked reports how many deliveries have blocked their timer goroutine on
// a full mailbox so far. A burst of up to Config.Mailbox deliveries per
// process never parks; a sustained overload parks (and the count makes the
// pileup observable instead of silent).
func (n *Network) Parked() uint64 { return n.parked.Load() }

// Delivered reports how many deliveries have been handed to a mailbox.
func (n *Network) Delivered() uint64 { return n.delivered.Load() }

// Crash marks id crashed: no more sends, deliveries or timer callbacks.
func (n *Network) Crash(id ident.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed.Add(id)
}

// Crashed reports whether id crashed.
func (n *Network) Crashed(id ident.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed.Has(id)
}

// Close shuts the network down: pending timers are canceled, dispatchers
// drained and joined. Safe to call more than once.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	n.mu.Unlock()

	n.pending.Wait() // all in-flight timer callbacks finished or canceled
	n.dispers.Wait() // all dispatchers observed done
}

// after schedules fn with cancel-on-close semantics; fn runs on a timer
// goroutine unless the network closes or the owner crashes first.
func (n *Network) after(owner ident.ID, d time.Duration, fn func()) node.Timer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return stoppedTimer{}
	}
	n.pending.Add(1)
	lt := &liveTimer{}
	t := time.AfterFunc(d, func() {
		defer n.pending.Done()
		if !lt.consume() {
			return
		}
		select {
		case <-n.done:
			return
		default:
		}
		if n.Crashed(owner) {
			return
		}
		fn()
	})
	lt.t = t
	lt.net = n
	return lt
}

// liveTimer wraps time.Timer with exactly-once consumption so that Stop
// after firing reports false and a stopped timer releases the WaitGroup.
type liveTimer struct {
	mu       sync.Mutex
	t        *time.Timer
	net      *Network
	consumed bool
}

// consume marks the timer used; returns false if it was already stopped.
func (l *liveTimer) consume() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.consumed {
		return false
	}
	l.consumed = true
	return true
}

// Stop implements node.Timer.
func (l *liveTimer) Stop() bool {
	l.mu.Lock()
	if l.consumed {
		l.mu.Unlock()
		return false
	}
	l.consumed = true
	l.mu.Unlock()
	if l.t.Stop() {
		l.net.pending.Done() // callback will never run
		return true
	}
	// The callback is running concurrently; it will see consumed and
	// release the WaitGroup itself.
	return true
}

// Reset implements node.Timer. Only a timer that time.Timer.Stop still
// catches is re-armed — its callback then runs later, still owing the
// WaitGroup its Done. If the callback is already on its way, or the network
// has closed (Close waits for every pending timer), the answer is false and
// the caller stops this timer and arms a new one.
func (l *liveTimer) Reset(d time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.consumed {
		return false
	}
	select {
	case <-l.net.done:
		return false
	default:
	}
	if !l.t.Stop() {
		return false
	}
	l.t.Reset(d)
	return true
}

type stoppedTimer struct{}

func (stoppedTimer) Stop() bool { return false }

func (stoppedTimer) Reset(time.Duration) bool { return false }

// Env binds one identity to the live network. It implements node.Env.
type Env struct {
	net     *Network
	id      ident.ID
	handler node.Handler
	mailbox chan delivery
}

var _ node.Env = (*Env)(nil)

// dispatch serializes deliveries to the handler.
func (e *Env) dispatch(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case d := <-e.mailbox:
			if !e.net.Crashed(e.id) {
				e.handler.Deliver(d.from, d.payload)
			}
		case <-e.net.done:
			return
		}
	}
}

// Self implements node.Env.
func (e *Env) Self() ident.ID { return e.id }

// Now implements node.Env (time since network creation).
func (e *Env) Now() time.Duration { return time.Since(e.net.start) }

// After implements node.Env.
func (e *Env) After(d time.Duration, fn func()) node.Timer {
	return e.net.after(e.id, d, fn)
}

// Send implements node.Env: the payload is delivered after a random delay
// through the destination's mailbox, unless dropped.
func (e *Env) Send(to ident.ID, payload any) {
	n := e.net
	n.mu.Lock()
	if n.closed || n.crashed.Has(e.id) || to == e.id {
		n.mu.Unlock()
		return
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return
	}
	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		n.mu.Unlock()
		return
	}
	delay := n.cfg.MinDelay
	if span := n.cfg.MaxDelay - n.cfg.MinDelay; span > 0 {
		delay += time.Duration(n.rng.Int63n(int64(span)))
	}
	n.mu.Unlock()

	n.after(to, delay, func() {
		d := delivery{from: e.id, payload: payload}
		select {
		case dst.mailbox <- d:
			n.delivered.Add(1)
			return
		default:
		}
		// Full mailbox: the timer goroutine parks until the dispatcher
		// drains (or the network closes). Counted so overload is visible.
		n.parked.Add(1)
		select {
		case dst.mailbox <- d:
			n.delivered.Add(1)
		case <-n.done:
		}
	})
}

// Broadcast implements node.Env.
func (e *Env) Broadcast(payload any) {
	e.net.mu.Lock()
	targets := make([]ident.ID, 0, len(e.net.nodes))
	for id := range e.net.nodes {
		if id != e.id {
			targets = append(targets, id)
		}
	}
	e.net.mu.Unlock()
	ident.SortIDs(targets)
	for _, to := range targets {
		e.Send(to, payload)
	}
}
