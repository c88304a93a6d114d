package monitor_test

import (
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/node"
)

// reference_test.go keeps the runtime as it was before its timeouts became
// one deadline table: a timer per peer's deadline, one for the beat and one
// for the poll, each re-armed by Stop and After with a callback of its own.
// FuzzMonitorMatchesTimers holds monitor.Node to it.

type refPeer[R any] struct {
	rule      R
	deadline  node.Timer
	id        ident.ID
	suspected bool
}

// refNode is monitor.Node on timers.
type refNode[R any, PR monitor.Rule[R]] struct {
	env            node.Env
	cfg            monitor.Config
	byID           node.DenseMap[*refPeer[R]]
	tickFn, scanFn func()
	refState[R, PR]
}

// refState is the checkpoint. Timer handles are shared by value with the live
// node: the paired kernel snapshot makes them pending again after Restore.
type refState[R any, PR monitor.Rule[R]] struct {
	recs       []refPeer[R]
	seq        uint64
	stopped    bool
	beat, poll node.Timer
}

func (s *refState[R, PR]) copyTo(dst *refState[R, PR]) {
	recs := dst.recs
	if len(recs) != len(s.recs) {
		recs = make([]refPeer[R], len(s.recs))
	}
	*dst = *s
	dst.recs = recs
	for i := range recs {
		p, from := &recs[i], &s.recs[i]
		rule := p.rule
		*p = *from
		p.rule = rule
		PR(&from.rule).CopyTo(&p.rule)
	}
}

func newRefNode[R any, PR monitor.Rule[R]](env node.Env, cfg monitor.Config, proto R) *refNode[R, PR] {
	cfg.Peers = cfg.Peers.Clone()
	cfg.Peers.Remove(cfg.Self)
	n := &refNode[R, PR]{env: env, cfg: cfg}
	cfg.Peers.ForEach(func(id ident.ID) bool {
		n.recs = append(n.recs, refPeer[R]{id: id, rule: proto})
		return true
	})
	for i := range n.recs {
		n.byID.Put(n.recs[i].id, &n.recs[i])
	}
	n.tickFn, n.scanFn = n.tick, n.scan
	return n
}

func (n *refNode[R, PR]) Start() {
	now := n.env.Now()
	for i := range n.recs {
		p := &n.recs[i]
		n.arm(p, PR(&p.rule).Prime(now)-now)
	}
	n.tick()
	n.scan()
}

func (n *refNode[R, PR]) Restart(fresh bool) {
	stopTimer(n.beat)
	stopTimer(n.poll)
	n.stopped = false
	now := n.env.Now()
	for i := range n.recs {
		p := &n.recs[i]
		stopTimer(p.deadline)
		if fresh && p.suspected {
			p.suspected = false
			n.emit(p.id, false)
		}
		n.arm(p, PR(&p.rule).Resume(fresh, now)-now)
	}
	n.tick()
	n.scan()
}

func (n *refNode[R, PR]) Stop() {
	n.stopped = true
	stopTimer(n.beat)
	stopTimer(n.poll)
	for i := range n.recs {
		stopTimer(n.recs[i].deadline)
	}
}

func stopTimer(t node.Timer) {
	if t != nil {
		t.Stop()
	}
}

func (n *refNode[R, PR]) tick() {
	if n.stopped {
		return
	}
	n.seq++
	n.env.Broadcast(monitor.Message{From: n.env.Self(), Seq: n.seq})
	n.beat = n.env.After(n.cfg.Interval, n.tickFn)
}

func (n *refNode[R, PR]) scan() {
	if n.stopped || n.cfg.Poll <= 0 {
		return
	}
	now := n.env.Now()
	for i := range n.recs {
		p := &n.recs[i]
		if !p.suspected && PR(&p.rule).Suspected(now) {
			p.suspected = true
			n.emit(p.id, true)
		}
	}
	n.poll = n.env.After(n.cfg.Poll, n.scanFn)
}

// arm stops p's suspicion timer, if any, and arms a new one.
func (n *refNode[R, PR]) arm(p *refPeer[R], wait time.Duration) {
	if n.cfg.Poll > 0 {
		return
	}
	stopTimer(p.deadline)
	p.deadline = n.env.After(wait, func() {
		if n.stopped || p.suspected {
			return
		}
		p.suspected = true
		n.emit(p.id, true)
	})
}

func (n *refNode[R, PR]) Deliver(from ident.ID, payload any) {
	m, ok := payload.(monitor.Message)
	if !ok {
		return
	}
	p := n.byID.Get(from)
	if p == nil || n.stopped {
		return
	}
	now := n.env.Now()
	deadline, ok := PR(&p.rule).Beat(m.Seq, now, p.suspected)
	if !ok {
		return
	}
	if p.suspected {
		p.suspected = false
		n.emit(from, false)
	}
	n.arm(p, deadline-now)
}

func (n *refNode[R, PR]) emit(subject ident.ID, suspected bool) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), subject, suspected)
	}
}

func (n *refNode[R, PR]) Snapshot() any {
	s := new(refState[R, PR])
	n.refState.copyTo(s)
	return s
}

func (n *refNode[R, PR]) Restore(snap any) {
	snap.(*refState[R, PR]).copyTo(&n.refState)
}
