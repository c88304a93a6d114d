package monitor_test

import (
	"runtime"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/netsim"
)

// ledgerPeers is the dense-mesh workload's degree: a monitor at n = 128
// watches 127 peers.
const ledgerPeers = 127

// ledgerRig is one started monitor (process 0) of ledgerPeers peers on a
// zero-delay network, with the kind's default windows, warmed until every
// one of them is full.
type ledgerRig struct {
	*cluster
	nd    detector
	round uint64
	msgs  []any
}

func newLedgerRig(b *testing.B, k kind) *ledgerRig {
	b.Helper()
	r := &ledgerRig{cluster: newNet(netsim.Constant{}), msgs: make([]any, ledgerPeers)}
	r.nd = r.add(b, k, 0, ident.FullSet(ledgerPeers+1))
	r.nd.Start()
	for i := 0; i < 256; i++ { // φ keeps 200 samples, NFD-E 100
		r.advance()
		r.deliverAll()
	}
	return r
}

// box makes the next round's heartbeats: the payload is the sender's
// allocation, not the monitor's.
func (r *ledgerRig) box() {
	r.round++
	for p := range r.msgs {
		r.msgs[p] = monitor.Message{From: ident.ID(p + 1), Seq: r.round}
	}
}

// advance moves the clock one heartbeat interval on and boxes a round.
func (r *ledgerRig) advance() {
	r.sim.RunUntil(r.sim.Now() + interval)
	r.box()
}

func (r *ledgerRig) deliverAll() {
	for p, m := range r.msgs {
		r.nd.Deliver(ident.ID(p+1), m)
	}
}

// BenchmarkDeliver is the detector-step row of the layer ledger: one
// heartbeat from a trusted peer into a warmed monitor of 127 peers — peer
// lookup, the rule's update, the deadline pushed back in place. The clock
// advance between rounds of 127 (the monitor's own beat, φ's polls) is not
// timed: each round is timed by hand and the sum reported as ns/op, while the
// benchmark's timer, which sizes b.N, runs throughout. It is not stopped
// around each advance because stopping and starting it reads the runtime's
// memory statistics, a stop-the-world that costs more than a round. B/op and
// allocs/op come from one whole round after the loop.
func BenchmarkDeliver(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			r := newLedgerRig(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			var spent time.Duration
			for i := 0; i < b.N; {
				r.advance()
				start := time.Now()
				for p := 0; p < ledgerPeers && i < b.N; p, i = p+1, i+1 {
					r.nd.Deliver(ident.ID(p+1), r.msgs[p])
				}
				spent += time.Since(start)
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
			// A whole round first: the loop's last one may have left peers
			// out, and their deadlines have passed by the next.
			r.advance()
			r.deliverAll()
			r.advance()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.deliverAll()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/ledgerPeers, "B/op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/ledgerPeers, "allocs/op")
		})
	}
}

// BenchmarkScan is the polled half of a polled kind's step: one firing of
// the poll timer over 127 trusted peers, in the steady-state mix — φ's four
// polls per heartbeat interval, every one of them before every peer's
// horizon, so no poll fits a window: 127 compares, and the poll timer armed
// again. The deliveries themselves are not timed; the monitor's own beat (a
// broadcast nobody receives) falls into one poll in four.
func BenchmarkScan(b *testing.B) {
	for _, k := range kinds {
		if k.armed != 0 {
			continue // deadline-driven: nothing polls
		}
		b.Run(k.name, func(b *testing.B) {
			r := newLedgerRig(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				b.StopTimer()
				r.box()
				r.deliverAll()
				b.StartTimer()
				for q := 0; q < 4 && i < b.N; q, i = q+1, i+1 {
					r.sim.RunUntil(r.sim.Now() + interval/4)
				}
			}
		})
	}
}

// BenchmarkFootprint is the memory row of the layer ledger: the live heap a
// monitored peer costs (B/peer), taken after a GC over the warmed rig of 127
// peers plus one checkpoint of it — the peer records, the rules' full
// windows and the checkpoint's copy of both, with the rig's fixed share (the
// kernel, the network, the node) spread over the peers. One op builds, warms
// and checkpoints one rig; the metric is the last op's.
func BenchmarkFootprint(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			var perPeer float64
			for i := 0; i < b.N; i++ {
				before := liveHeap()
				r := newLedgerRig(b, k)
				snap := r.nd.Snapshot()
				perPeer = float64(liveHeap()-before) / ledgerPeers
				runtime.KeepAlive(r)
				runtime.KeepAlive(snap)
			}
			b.ReportMetric(perPeer, "B/peer")
		})
	}
}

// liveHeap is the bytes of heap objects that survive a GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
