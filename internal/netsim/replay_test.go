package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
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
	sim, _, boxes, envs := newNet(t, seed, 4, Replay{Series: series})
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
	sim, net, _, envs := newNet(t, 1, 4, Replay{Series: series})
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
	sim, _, _, envs := newNet(t, 42, 3, Replay{Series: series})
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
		sim, net, boxes, envs := newNet(t, 5, 4, Replay{Series: series})
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
	r := Replay{Series: series}
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
	p := Replay{Series: &trace.DelaySeries{Span: 20480 * time.Millisecond}}
	ids := []ident.ID{0, 1, 2, 31, 127, 255, 256, 65535, 1 << 20, math.MaxInt32, ident.Nil}
	for _, from := range ids {
		for _, to := range ids {
			var buf [8]byte
			binary.LittleEndian.PutUint32(buf[:4], uint32(from))
			binary.LittleEndian.PutUint32(buf[4:], uint32(to))
			h := fnv.New64a()
			h.Write(buf[:])
			want := time.Duration(h.Sum64() % uint64(p.Series.Span))
			if got := p.linkPhase(from, to); got != want {
				t.Errorf("linkPhase(%v, %v) = %v, hash/fnv gives %v", from, to, got, want)
			}
		}
	}
}

// BenchmarkReplayDelayLoss is the trace-model row of the layer ledger
// (docs/BENCHMARKS.md): what one send pays the delay model under the churn
// workload's replayed trace — the link's phase and the series lookup.
func BenchmarkReplayDelayLoss(b *testing.B) {
	series, err := trace.Synthetic(trace.SyntheticConfig{
		Seed: 3, Count: 4096, Tick: 5 * time.Millisecond,
		Base: time.Millisecond, Scale: 2 * time.Millisecond, Alpha: 1.2, Cap: 80 * time.Millisecond, LossRate: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := Replay{Series: series}
	var sink time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := p.DelayLoss(nil, ident.ID(i&31), ident.ID(i>>5&31), time.Duration(i)*time.Millisecond)
		sink += d
	}
	_ = sink
}
