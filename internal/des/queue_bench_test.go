package des

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"asyncfd/internal/ident"
)

// queue_bench_test.go: microbenchmarks for the kernel's hot paths, the des
// rows of the layer ledger (docs/BENCHMARKS.md). The two Queue ones
// (`go test -bench 'Queue' -benchmem ./internal/des`) stress the timer path
// without re-arms: a standing population of tens of thousands of near-term
// timers in the heap, and Stop/reap churn, whose stopped timers are
// reclaimed at the heap's root. Each is timed from a steady state: the slab
// and the heap have grown before the timer starts.

// BenchmarkQueueDenseHorizon measures steady-state churn with a large
// standing population of near-term timers: every fired event reschedules
// itself up to 10 ms ahead, so each Step is one pop from the heap and one
// push into it.
func BenchmarkQueueDenseHorizon(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	const standing = 1 << 16
	var reschedule func()
	reschedule = func() {
		s.After(time.Duration(1+s.Rand().Intn(10_000_000)), reschedule)
	}
	for k := 0; k < standing; k++ {
		reschedule()
	}
	s.RunUntil(20 * time.Millisecond) // two horizons: the heap at full size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// countingSink counts deliveries.
type countingSink struct{ delivered int }

func (k *countingSink) Deliver(ident.ID, ident.ID, any) { k.delivered++ }

func (k *countingSink) Alive(ident.ID) bool { return true }

// BenchmarkFanoutMesh is the broadcast row of the layer ledger
// (docs/BENCHMARKS.md): n senders on a full mesh, each fanning out to n−1
// receivers once per period under the dense-mesh workload's delay model
// (500 µs + Exp(700 µs)), their phases staggered so that about n fan-out
// nodes are in flight — the k-way merge a broadcast-heavy run is. The delays
// come from a table drawn beforehand, so the timed loop is the kernel's:
// sorting each broadcast's receivers, merging the nodes, delivering. One op
// is one delivery.
func BenchmarkFanoutMesh(b *testing.B) {
	const period = 4 * time.Millisecond
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := New(1)
			k := &countingSink{}
			s.SetSink(k)
			r := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, 1<<12)
			for j := range delays {
				delays[j] = 500*time.Microsecond + time.Duration(r.ExpFloat64()*float64(700*time.Microsecond))
			}
			recv := make([]Receiver, n-1)
			var payload any = "q"
			next := 0
			for p := 0; p < n; p++ {
				var tick func()
				tick = func() {
					for j := range recv {
						recv[j] = Receiver{D: delays[next%len(delays)], To: ident.ID(j)}
						next++
					}
					s.Fanout(ident.ID(p), payload, recv)
					s.After(period, tick)
				}
				s.After(period*time.Duration(p)/time.Duration(n), tick)
			}
			s.RunUntil(20 * period) // warm the slab, the item pool and the heap
			b.ReportAllocs()
			b.ResetTimer()
			for k.delivered = 0; k.delivered < b.N; {
				s.Step()
			}
		})
	}
}

// BenchmarkQueueStopReapChurn measures the per-peer-timeout pattern: arm a
// timeout, cancel it, re-arm — so the heap carries a steady mix of live
// and stopped events and reaps the stopped ones as they surface.
func BenchmarkQueueStopReapChurn(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	const peers = 1 << 12
	timers := make([]*Timer, peers)
	fn := func() {}
	for k := range timers {
		timers[k] = s.After(time.Duration(1+s.Rand().Intn(2_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % peers
		timers[k].Stop()
		timers[k] = s.After(time.Duration(1+s.Rand().Intn(2_000_000)), fn)
		if i%4 == 0 {
			s.Step()
		}
	}
}

// BenchmarkRearm is the des row of the layer ledger (docs/BENCHMARKS.md):
// the per-peer timeout of a timer-based monitor of 127 peers, Θ = 2Δ, each
// pushed back once per Δ as the clock advances — always the least one, the
// timeout re-armed longest ago. "table" sets a slot of one deadline table,
// which links it at the tail of the table's list; "table-jitter" draws each
// timeout from a seeded ±Δ/8 around 2Δ, so that 78 % of the Sets land
// below the tail and walk back past the keys later than theirs, 5.0 slots a
// Set on average and 21 at most: the cost of Sets out of order;
// "stop+after" stops a timer per peer and arms a new one. One op is one re-arm plus its share of the queue work the
// clock's advance brings (re-keying the table's event, reclaiming stopped
// timers). The first eight Δ are not timed.
func BenchmarkRearm(b *testing.B) {
	const (
		peers    = 127
		interval = time.Second
		timeout  = 2 * interval
	)
	r := rand.New(rand.NewSource(1))
	jitter := make([]time.Duration, 1<<12)
	for j := range jitter {
		jitter[j] = time.Duration(r.Int63n(int64(interval/4))) - interval/8
	}
	for _, variant := range []string{"table", "table-jitter", "stop+after"} {
		b.Run(variant, func(b *testing.B) {
			b.ReportAllocs()
			s := New(1)
			fn := func() { b.Fatal("a timeout expired") }
			d := s.Deadlines(ident.Nil, peers, func(int) { fn() })
			timers := make([]*Timer, peers)
			wait := func(int) time.Duration { return timeout }
			if variant == "table-jitter" {
				wait = func(i int) time.Duration { return timeout + jitter[i%len(jitter)] }
			}
			for k := range timers {
				if variant == "stop+after" {
					timers[k] = s.After(timeout, fn)
				} else {
					d.Set(k, wait(k))
				}
			}
			rearm := func(i int) {
				s.RunUntil(s.Now() + interval/peers)
				k := i % peers
				if variant == "stop+after" {
					timers[k].Stop()
					timers[k] = s.After(timeout, fn)
				} else {
					d.Set(k, wait(i))
				}
			}
			for i := 0; i < 8*peers; i++ {
				rearm(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rearm(i)
			}
		})
	}
}
