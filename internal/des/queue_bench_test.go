package des

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
)

// queue_bench_test.go: heap-vs-ladder microbenchmarks for the kernel's hot
// paths. The headline is the dense-horizon benchmark — hundreds of
// thousands of near-term timers in flight, the shape every n=256
// per-peer-timeout experiment generates — where the ladder's O(1) bucket
// operations beat the heap's O(log n) sifts. Run with
// `go test -bench 'Queue' -benchmem ./internal/des`.

// BenchmarkQueueDenseHorizon measures steady-state push/pop churn with a
// large standing population of near-term timers: every fired event
// reschedules itself, so each Step is one pop plus one push against a
// ~64k-element queue.
func BenchmarkQueueDenseHorizon(b *testing.B) {
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			s := k.new(1)
			const standing = 1 << 16
			var reschedule func()
			reschedule = func() {
				s.After(time.Duration(1+s.Rand().Intn(10_000_000)), reschedule)
			}
			for k := 0; k < standing; k++ {
				reschedule()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkQueueBroadcastFanout measures fan-out scheduling plus drain — the
// netsim broadcast path — under both queues, including the kernel's fan-out
// item slice pool.
func BenchmarkQueueBroadcastFanout(b *testing.B) {
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			recv := make([]Receiver, 64)
			var deliver any = func(ident.ID) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, _ := sunk(k.new(1))
				for round := 0; round < 20; round++ {
					for j := range recv {
						recv[j] = Receiver{D: time.Duration(j%7) * time.Microsecond, To: ident.ID(j)}
					}
					s.Fanout(0, deliver, recv)
					s.Run()
				}
			}
		})
	}
}

// BenchmarkQueueStopReapChurn measures the per-peer-timeout pattern: arm a
// timeout, cancel it, re-arm — so the queue carries a steady mix of live
// and stopped events and reaps the stopped ones as they surface.
func BenchmarkQueueStopReapChurn(b *testing.B) {
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			s := k.new(1)
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
		})
	}
}

// BenchmarkRearm is the des row of the layer ledger (docs/BENCHMARKS.md):
// the per-peer timeout of the timer-based detectors. A standing population
// of 16k timeouts of Θ = 2Δ, each pushed back once per Δ as the clock
// advances — by Stop + After, as before Timer.Reset, or in place. One op is
// one re-arm plus its share of the queue work the clock's advance brings
// (reclaiming stopped events, re-keying re-armed ones).
func BenchmarkRearm(b *testing.B) {
	const (
		standing = 1 << 14
		interval = time.Second
		timeout  = 2 * interval
	)
	for _, reset := range []bool{false, true} {
		name := "stop+after"
		if reset {
			name = "reset"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := New(1)
			fn := func() { b.Fatal("a timeout expired") }
			timers := make([]*Timer, standing)
			for k := range timers {
				timers[k] = s.After(timeout, fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunUntil(s.Now() + interval/standing)
				k := i % standing
				if !reset || !timers[k].Reset(timeout) {
					timers[k].Stop()
					timers[k] = s.After(timeout, fn)
				}
			}
		})
	}
}
