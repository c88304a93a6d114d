package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
	"asyncfd/internal/trace"
)

// lossySeries is a trace with a pronounced delay profile and a loss window,
// long enough that different link phases land on different samples.
func lossySeries(t *testing.T) *trace.DelaySeries {
	t.Helper()
	s, err := trace.Synthetic(trace.SyntheticConfig{
		Seed:     7,
		Count:    200,
		Tick:     50 * time.Millisecond,
		Base:     time.Millisecond,
		Scale:    2 * time.Millisecond,
		Alpha:    1.2,
		Cap:      80 * time.Millisecond,
		LossRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveReplay sends a message on every ordered pair every 100ms for 5s and
// returns one line per delivery ("t=... from->to at=..."), the delivery
// fingerprint of the run.
func driveReplay(t *testing.T, seed int64, series *trace.DelaySeries) []string {
	t.Helper()
	sim, _, boxes, envs := newNet(t, seed, 4, NewReplay(series, 4))
	for tick := time.Duration(0); tick < 5*time.Second; tick += 100 * time.Millisecond {
		tick := tick
		sim.At(tick, func() {
			for i, env := range envs {
				for j := range envs {
					if i != j {
						env.Send(ident.ID(j), tick)
					}
				}
			}
		})
	}
	sim.Run()
	var lines []string
	for i, ib := range boxes {
		for _, m := range ib.got {
			lines = append(lines, fmt.Sprintf("%v %v->p%d at=%v", m.payload, m.from, i, m.at))
		}
	}
	return lines
}

func TestReplayDeterministicAcrossRuns(t *testing.T) {
	series := lossySeries(t)
	a := driveReplay(t, 1, series)
	b := driveReplay(t, 1, series)
	if len(a) == 0 {
		t.Fatal("no deliveries")
	}
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestReplaySeedIndependent(t *testing.T) {
	// Replay never touches the RNG, so the kernel seed must not change the
	// delivery schedule.
	series := lossySeries(t)
	a := driveReplay(t, 1, series)
	b := driveReplay(t, 999, series)
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ across seeds: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs across seeds:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestReplayDropsLossSamples(t *testing.T) {
	series := lossySeries(t)
	sim, net, _, envs := newNet(t, 1, 4, NewReplay(series, 4))
	for tick := time.Duration(0); tick < 10*time.Second; tick += 100 * time.Millisecond {
		sim.At(tick, func() {
			for i, env := range envs {
				for j := range envs {
					if i != j {
						env.Send(ident.ID(j), "m")
					}
				}
			}
		})
	}
	sim.Run()
	st := net.Stats()
	if st.Dropped == 0 {
		t.Error("lossy trace dropped nothing")
	}
	if st.Delivered == 0 {
		t.Error("lossy trace delivered nothing")
	}
	if st.Sent != st.Delivered+st.Dropped {
		t.Errorf("stats don't balance: %+v", st)
	}
}

func TestReplayConsumesNoRNGDraws(t *testing.T) {
	// Drive lossy replay traffic through one simulation, none through a
	// second with the same seed. If replay (or its loss decisions) consumed
	// any RNG draws the streams would have diverged.
	series := lossySeries(t)
	sim, _, _, envs := newNet(t, 42, 3, NewReplay(series, 3))
	for tick := time.Duration(0); tick < 5*time.Second; tick += 50 * time.Millisecond {
		sim.At(tick, func() {
			for i, env := range envs {
				for j := range envs {
					if i != j {
						env.Send(ident.ID(j), "m")
					}
				}
			}
		})
	}
	sim.Run()

	fresh := des.New(42)
	for i := 0; i < 8; i++ {
		if got, want := sim.Rand().Int63(), fresh.Rand().Int63(); got != want {
			t.Fatalf("RNG draw %d diverged after replay traffic: got %d want %d", i, got, want)
		}
	}
}

func TestReplaySnapshotRestoreIdentical(t *testing.T) {
	// Fork path: warm to 2s, snapshot, run to 6s twice from the same
	// checkpoint. Replay has no cursor state, so both continuations must
	// deliver identically.
	series := lossySeries(t)
	run := func() []string {
		sim, net, boxes, envs := newNet(t, 5, 4, NewReplay(series, 4))
		for tick := time.Duration(0); tick < 6*time.Second; tick += 100 * time.Millisecond {
			tick := tick
			sim.At(tick, func() {
				for i, env := range envs {
					for j := range envs {
						if i != j {
							env.Send(ident.ID(j), tick)
						}
					}
				}
			})
		}
		sim.RunUntil(2 * time.Second)
		ksnap := sim.Snapshot()
		nsnap := net.Snapshot()
		// Compare only the post-checkpoint window: drop warm-up deliveries.
		for _, ib := range boxes {
			ib.got = ib.got[:0]
		}

		collect := func() []string {
			sim.RunUntil(6 * time.Second)
			var lines []string
			for i, ib := range boxes {
				for _, m := range ib.got {
					lines = append(lines, fmt.Sprintf("%v %v->p%d at=%v", m.payload, m.from, i, m.at))
				}
			}
			return lines
		}
		first := collect()
		// Rewind: clear the inboxes, restore, rerun the same window.
		for _, ib := range boxes {
			ib.got = ib.got[:0]
		}
		sim.Restore(ksnap)
		net.Restore(nsnap)
		second := collect()
		if len(first) != len(second) {
			t.Fatalf("restored run delivered %d messages, first run %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("delivery %d differs after restore:\n  %s\n  %s", i, first[i], second[i])
			}
		}
		return first
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs across runs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestReplayDirectionsDecorrelated(t *testing.T) {
	// The two directions of a link hash to different phases, so their delay
	// sequences should differ somewhere over a long window.
	series := lossySeries(t)
	r := NewReplay(series, 2)
	for tick := time.Duration(0); tick < 10*time.Second; tick += 100 * time.Millisecond {
		if r.Delay(nil, 0, 1, tick) != r.Delay(nil, 1, 0, tick) {
			return
		}
	}
	t.Error("forward and reverse link delays identical over 10s — phases not decorrelated")
}

// TestLinkPhaseIsFNV1a pins the link phase to what hash/fnv computes over the
// two ids' little-endian bytes: the inlined loop may not move a single link
// to another slice of the trace.
func TestLinkPhaseIsFNV1a(t *testing.T) {
	const span = 20480 * time.Millisecond
	ids := []ident.ID{0, 1, 2, 31, 127, 255, 256, 65535, 1 << 20, math.MaxInt32, ident.Nil}
	for _, from := range ids {
		for _, to := range ids {
			var buf [8]byte
			binary.LittleEndian.PutUint32(buf[:4], uint32(from))
			binary.LittleEndian.PutUint32(buf[4:], uint32(to))
			h := fnv.New64a()
			h.Write(buf[:])
			want := time.Duration(h.Sum64() % uint64(span))
			if got := linkPhase(span, from, to); got != want {
				t.Errorf("linkPhase(%v, %v) = %v, hash/fnv gives %v", from, to, got, want)
			}
		}
	}
}

// TestReplayTableIsLinkPhase checks every ordered pair's entry of the phase
// table against linkPhase, at sizes on both sides of a power of two, and the
// delay a send on the link plays back against the series read at that
// phase.
func TestReplayTableIsLinkPhase(t *testing.T) {
	series := lossySeries(t)
	for _, n := range []int{1, 2, 32, 33} {
		p := NewReplay(series, n)
		if len(p.phase) != n*n {
			t.Fatalf("n=%d: table holds %d phases, want %d", n, len(p.phase), n*n)
		}
		now := 1234 * time.Millisecond
		for from := ident.ID(0); int(from) < n; from++ {
			for to := ident.ID(0); int(to) < n; to++ {
				want := linkPhase(series.Span, from, to)
				if got := p.phase[int(from)*n+int(to)]; got != want {
					t.Fatalf("n=%d: phase[%v->%v] = %v, linkPhase gives %v", n, from, to, got, want)
				}
				wd, wok := series.OneWay(now + want)
				if d, ok := p.DelayLoss(nil, from, to, now); d != wd || ok != wok {
					t.Fatalf("n=%d: DelayLoss(%v->%v) = %v, %v, the series at the link's phase gives %v, %v", n, from, to, d, ok, wd, wok)
				}
			}
		}
	}
}

// TestReplayPanicsOutsideCluster: a link with an end outside [0, n) has no
// phase, and the panic names the link and n.
func TestReplayPanicsOutsideCluster(t *testing.T) {
	p := NewReplay(lossySeries(t), 4)
	for _, link := range [][2]ident.ID{{4, 0}, {0, 4}, {ident.Nil, 1}, {2, ident.Nil}, {5, 5}} {
		want := fmt.Sprintf("link %v->%v is outside the cluster of n=4", link[0], link[1])
		for name, send := range map[string]func(){
			"Delay":     func() { p.Delay(nil, link[0], link[1], 0) },
			"DelayLoss": func() { p.DelayLoss(nil, link[0], link[1], 0) },
		} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, want) {
						t.Errorf("%s(%v->%v) panicked with %q, want it to name %q", name, link[0], link[1], msg, want)
					}
				}()
				send()
			}()
		}
	}
}

// TestAllocsReplayDelayLoss pins a replayed send's delay draw at zero
// allocations: one read of the phase table, one of the series' index.
func TestAllocsReplayDelayLoss(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	p := NewReplay(lossySeries(t), 32)
	p.DelayLoss(nil, 0, 1, 0) // build the series' index outside the measurement
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		p.DelayLoss(nil, ident.ID(i&31), ident.ID(i>>5&31), time.Duration(i)*time.Millisecond)
		i++
	}); got != 0 {
		t.Errorf("DelayLoss allocates %v times per call, want 0", got)
	}
}

// BenchmarkReplayDelayLoss is the trace-model row of the layer ledger
// (docs/BENCHMARKS.md): what one send pays the delay model under the churn
// workload's replayed trace — the link's phase and the series lookup. Its
// ids span 0..31, the churn workload's n = 32.
func BenchmarkReplayDelayLoss(b *testing.B) {
	series, err := trace.Synthetic(trace.SyntheticConfig{
		Seed: 3, Count: 4096, Tick: 5 * time.Millisecond,
		Base: time.Millisecond, Scale: 2 * time.Millisecond, Alpha: 1.2, Cap: 80 * time.Millisecond, LossRate: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := NewReplay(series, 32)
	var sink time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := p.DelayLoss(nil, ident.ID(i&31), ident.ID(i>>5&31), time.Duration(i)*time.Millisecond)
		sink += d
	}
	_ = sink
}
