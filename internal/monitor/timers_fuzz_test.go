package monitor_test

import (
	"fmt"
	"testing"
	"time"

	"asyncfd/internal/chen"
	"asyncfd/internal/des"
	"asyncfd/internal/fd"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/trace"
)

// runner is what a monitor script drives: monitor.Node or refNode.
type runner interface {
	node.Handler
	node.Cloneable
	Start()
	Stop()
	Restart(fresh bool)
}

// monitorScript is a decoded fuzz input: a cluster of one kind and the faults
// to put it through.
type monitorScript struct {
	kind, n  int
	interval time.Duration
	// param is the kind's knob: the fixed timeout, or NFD-E's α.
	param   time.Duration
	delay   netsim.DelayModel
	started []bool // started at 0; the others hear heartbeats before Start
	ops     []byte
}

// parseMonitorScript reads four header bytes — the kind and the cluster's
// size, the delay model, who starts at 0, the kind's knob — and takes the
// rest as two-byte operations.
func parseMonitorScript(data []byte) (monitorScript, bool) {
	if len(data) < 4 {
		return monitorScript{}, false
	}
	const interval = 100 * time.Millisecond
	s := monitorScript{kind: int(data[0] % 3), n: 2 + int(data[0]/3%4), interval: interval, ops: data[4:]}
	if len(s.ops) > 128 {
		s.ops = s.ops[:128]
	}
	// Constant delays that are multiples of Δ/8 land heartbeats on ticks,
	// polls and deadlines of the same instant.
	if param := time.Duration(data[1] >> 1); data[1]&1 == 0 {
		s.delay = netsim.Constant{D: interval * (param % 17) / 8}
	} else {
		s.delay = netsim.Exponential{Mean: interval * (1 + param%32) / 16}
	}
	s.started = make([]bool, s.n)
	for i := range s.n {
		s.started[i] = data[2]&(1<<i) != 0
	}
	s.param = interval / 4 * time.Duration(1+data[3]%16)
	return s, true
}

// monitorRig is one run of a script: n nodes of one implementation on their
// own kernel and network.
type monitorRig struct {
	s       monitorScript
	sim     *des.Simulator
	net     *netsim.Network
	log     *trace.Log
	nodes   []runner
	started []bool
	steps   []string // Now and Steps after every operation
}

func newMonitorRig(s monitorScript, build func(env node.Env, sink fd.SuspicionSink) runner) *monitorRig {
	r := &monitorRig{s: s, sim: des.New(1), log: &trace.Log{}, nodes: make([]runner, s.n), started: make([]bool, s.n)}
	r.net = netsim.New(r.sim, netsim.Config{Delay: s.delay})
	for i := range r.nodes {
		env := r.net.AddNode(ident.ID(i), node.HandlerFunc(func(from ident.ID, payload any) {
			r.nodes[i].Deliver(from, payload)
		}))
		r.nodes[i] = build(env, r.log)
	}
	for i, nd := range r.nodes {
		if s.started[i] {
			nd.Start()
			r.started[i] = true
		}
	}
	return r
}

// apply runs one operation.
func (r *monitorRig) apply(op, arg byte) {
	s := r.s
	id := ident.ID(int(arg) % s.n)
	switch op % 9 {
	case 0, 1: // time passes: up to 8Δ
		r.sim.RunUntil(r.sim.Now() + s.interval*time.Duration(arg)/32)
	case 2:
		r.net.Crash(id)
	case 3: // crash-recovery, or a reboot of a running node: fresh or
		// persisted; a node that never started starts so
		r.net.Recover(id)
		r.nodes[id].Restart(arg&0x80 != 0)
		r.started[id] = true
	case 4: // the processes whose bit is set in arg on one island
		var island, rest []ident.ID
		for i := range s.n {
			if arg&(1<<i) != 0 {
				island = append(island, ident.ID(i))
			} else {
				rest = append(rest, ident.ID(i))
			}
		}
		r.net.Partition(island, rest)
	case 5:
		r.net.Heal()
	case 6:
		r.nodes[id].Stop()
	case 7: // a node that has not started starts now (Start is made once)
		if !r.started[id] {
			r.started[id] = true
			r.nodes[id].Start()
		}
	case 8:
		r.detour(id, s.interval*time.Duration(arg)/16)
	}
	r.steps = append(r.steps, fmt.Sprintf("%v/%d", r.sim.Now(), r.sim.Steps()))
}

// detour checkpoints every layer, runs on for d with one node rebooted fresh
// and the next one stopped, and rolls everything back: what follows must be
// as if it never happened.
func (r *monitorRig) detour(id ident.ID, d time.Duration) {
	snaps := make([]any, len(r.nodes))
	for i, nd := range r.nodes {
		snaps[i] = nd.Snapshot()
	}
	sim, net, mark := r.sim.Snapshot(), r.net.Snapshot(), r.log.Mark()
	r.nodes[id].Restart(true)
	r.nodes[(int(id)+1)%r.s.n].Stop()
	r.sim.RunUntil(r.sim.Now() + d)
	r.sim.Restore(sim)
	r.net.Restore(net)
	r.log.TruncateTo(mark)
	for i, nd := range r.nodes {
		nd.Restore(snaps[i])
	}
}

// kindBuilders returns a kind's two implementations: monitor.Node, built by
// the kind's constructor, and refNode on the same rule and configuration.
func kindBuilders(s monitorScript) (got, want func(env node.Env, sink fd.SuspicionSink) runner) {
	peers := ident.FullSet(s.n)
	switch s.kind {
	case 0:
		return pair(peers, s.interval, 0, func(env node.Env, sink fd.SuspicionSink) *heartbeat.Node {
			nd, err := heartbeat.NewNode(env, heartbeat.Config{Self: env.Self(), Peers: peers, Interval: s.interval, Timeout: s.param, Sink: sink})
			if err != nil {
				panic(err)
			}
			return nd
		})
	case 1:
		return pair(peers, s.interval, s.interval/4, func(env node.Env, sink fd.SuspicionSink) *monitor.Node[phiaccrual.Estimator, *phiaccrual.Estimator] {
			nd, err := phiaccrual.NewNode(env, phiaccrual.Config{Self: env.Self(), Peers: peers, Interval: s.interval, Sink: sink})
			if err != nil {
				panic(err)
			}
			return nd.Node
		})
	default:
		return pair(peers, s.interval, 0, func(env node.Env, sink fd.SuspicionSink) *chen.Node {
			nd, err := chen.NewNode(env, chen.Config{Self: env.Self(), Peers: peers, Interval: s.interval, Alpha: s.param, Sink: sink})
			if err != nil {
				panic(err)
			}
			return nd
		})
	}
}

// pair wraps a kind's constructor and builds refNode beside it: the same
// peers, Δ and poll (the kind's), and for every peer the rule a node that
// never started keeps.
func pair[R any, PR monitor.Rule[R]](peers ident.Set, interval, poll time.Duration, build func(node.Env, fd.SuspicionSink) *monitor.Node[R, PR]) (got, want func(node.Env, fd.SuspicionSink) runner) {
	net := netsim.New(des.New(1), netsim.Config{Delay: netsim.Constant{}})
	var proto R
	build(net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {})), nil).Peek(1, func(rule PR, _ time.Duration) { proto = *rule })
	got = func(env node.Env, sink fd.SuspicionSink) runner { return build(env, sink) }
	want = func(env node.Env, sink fd.SuspicionSink) runner {
		return newRefNode[R, PR](env, monitor.Config{Self: env.Self(), Peers: peers, Interval: interval, Poll: poll, Sink: sink}, proto)
	}
	return got, want
}

// runMonitorScript runs data on monitor.Node and on refNode side by side,
// then lets both settle for 16Δ, and requires the same suspicion log and the
// same Now and Steps after every operation.
func runMonitorScript(t *testing.T, data []byte) {
	s, ok := parseMonitorScript(data)
	if !ok {
		return
	}
	buildGot, buildWant := kindBuilders(s)
	got, want := newMonitorRig(s, buildGot), newMonitorRig(s, buildWant)
	for ops := s.ops; len(ops) >= 2; ops = ops[2:] {
		got.apply(ops[0], ops[1])
		want.apply(ops[0], ops[1])
	}
	got.apply(0, 255)
	want.apply(0, 255)
	got.apply(0, 255)
	want.apply(0, 255)

	ge, we := got.log.Events(), want.log.Events()
	for i := range min(len(ge), len(we)) {
		if ge[i] != we[i] {
			t.Fatalf("suspicion log differs at event %d of %d/%d: %+v, timers %+v", i, len(ge), len(we), ge[i], we[i])
		}
	}
	if len(ge) != len(we) {
		t.Fatalf("suspicion log has %d events, timers %d", len(ge), len(we))
	}
	for i := range got.steps {
		if got.steps[i] != want.steps[i] {
			t.Fatalf("after operation %d: now/steps %s, timers %s", i, got.steps[i], want.steps[i])
		}
	}
}

// FuzzMonitorMatchesTimers drives clusters of two to five heartbeat, φ or
// NFD-E monitors, under constant delays (heartbeats, ticks, polls and
// deadlines tied at one instant) and exponential ones, with nodes that hear
// heartbeats before they start, through crashes, fresh and persisted
// recoveries, partitions and heals, stops and checkpoint round trips, on
// monitor.Node — its timeouts one deadline table — and on the runtime with a
// timer per timeout it replaced (reference_test.go), and requires identical
// suspicion logs and the same Steps() after every operation. The committed
// corpus (testdata/fuzz/FuzzMonitorMatchesTimers) is replayed by plain go
// test.
func FuzzMonitorMatchesTimers(f *testing.F) {
	f.Fuzz(runMonitorScript)
}
