package main

import (
	"sync/atomic"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/liveshard"
)

// ringSize bounds the heartbeats of one peer that may be between handler
// and estimator at once; on ladder steps it is at most one.
const ringSize = 8

// ring hands records from the socket reader that saw a peer's heartbeat to
// the shard worker that folds it: one producer (a peer always arrives on
// the same connection), one consumer (a peer belongs to one shard).
type ring struct {
	head, tail atomic.Uint32
	slots      [ringSize]atomic.Pointer[record]
}

func (r *ring) push(rec *record) bool {
	t := r.tail.Load()
	if t-r.head.Load() == ringSize {
		return false
	}
	r.slots[t%ringSize].Store(rec)
	r.tail.Store(t + 1)
	return true
}

// match pops the record of the heartbeat the service stamped at: the newest
// one whose handler entry is not after at. Older ones it pops on the way
// were evicted from the shard queue and stay unobserved.
func (r *ring) match(at int64) *record {
	var found *record
	h, t := r.head.Load(), r.tail.Load()
	for ; h != t; h++ {
		rec := r.slots[h%ringSize].Load()
		if rec.handlerAt.Load() > at {
			break
		}
		found = rec
	}
	r.head.Store(h)
	return found
}

// maxSteps is the five ladder steps and the traced run's second reference
// step.
const maxSteps = 6

// probe is the benchmark's side of the live path: it sits in the handler
// and estimator seams the layers already offer and writes times into the
// generator's records.
type probe struct {
	svc        *liveshard.Service
	traced     atomic.Bool // also time the inner calls
	rings      []ring      // by peer id
	slabs      [maxSteps][2]atomic.Pointer[[]record]
	hello      [2]atomic.Bool // per sender: its connection has delivered
	untracked  atomic.Int64   // heartbeats a full ring could not follow
	estimators []*probedEstimator
}

func (p *probe) now() int64 { return int64(p.svc.Now()) }

func seqOf(step, sender, i int) uint64 { return uint64(step+1)<<40 | uint64(sender)<<32 | uint64(i) }

func (p *probe) record(seq uint64) *record {
	step, sender, i := int(seq>>40)-1, int(seq>>32&0xff), int(seq&0xffffffff)
	if step < 0 || step >= maxSteps || sender >= len(p.slabs[0]) {
		return nil
	}
	slab := p.slabs[step][sender].Load()
	if slab == nil || i >= len(*slab) {
		return nil
	}
	return &(*slab)[i]
}

// probedHandler is the node.Handler the monitor transport delivers to.
type probedHandler struct {
	p        *probe
	firstSnd ident.ID // transport identity of sender 0
}

func (h *probedHandler) Deliver(from ident.ID, payload any) {
	p := h.p
	m, _ := payload.(heartbeat.Message)
	rec := p.record(m.Seq)
	if rec == nil {
		if i := int(from - h.firstSnd); i >= 0 && i < len(p.hello) {
			p.hello[i].Store(true)
		}
		p.svc.Deliver(from, payload)
		return
	}
	rec.handlerAt.Store(p.now())
	if !p.rings[m.From].push(rec) {
		p.untracked.Add(1)
	}
	p.svc.Deliver(from, payload)
	if p.traced.Load() {
		rec.handlerRet.Store(p.now())
	}
}

// probedEstimator wraps one peer's estimator. Its counters are touched only
// by the shard worker that owns the peer and read after the service closed.
type probedEstimator struct {
	inner liveshard.PeerEstimator
	p     *probe
	ring  *ring

	observeNS, observeN     int64 // timed Observe calls (traced run)
	suspectedNS, suspectedN int64 // timed Suspected calls (traced run)
	suspectedCalls          int64
}

func (e *probedEstimator) Observe(at time.Duration) {
	if e.p.traced.Load() {
		t0 := e.p.now()
		e.inner.Observe(at)
		e.observeNS += e.p.now() - t0
		e.observeN++
	} else {
		e.inner.Observe(at)
	}
	if rec := e.ring.match(int64(at)); rec != nil {
		rec.observeAt.Store(e.p.now())
	}
}

func (e *probedEstimator) Suspected(now time.Duration) bool {
	e.suspectedCalls++
	if !e.p.traced.Load() {
		return e.inner.Suspected(now)
	}
	t0 := e.p.now()
	s := e.inner.Suspected(now)
	e.suspectedNS += e.p.now() - t0
	e.suspectedN++
	return s
}
