package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

type inbox struct {
	got []struct {
		from    ident.ID
		payload any
		at      time.Duration
	}
	sim *des.Simulator
}

func (ib *inbox) Deliver(from ident.ID, payload any) {
	ib.got = append(ib.got, struct {
		from    ident.ID
		payload any
		at      time.Duration
	}{from, payload, ib.sim.Now()})
}

func newNet(t *testing.T, seed int64, n int, model DelayModel) (*des.Simulator, *Network, []*inbox, []*Env) {
	t.Helper()
	sim := des.New(seed)
	net := New(sim, Config{Delay: model})
	boxes := make([]*inbox, n)
	envs := make([]*Env, n)
	for i := 0; i < n; i++ {
		boxes[i] = &inbox{sim: sim}
		envs[i] = net.AddNode(ident.ID(i), boxes[i])
	}
	return sim, net, boxes, envs
}

func TestSendDelivers(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 2, Constant{D: 3 * time.Millisecond})
	envs[0].Send(1, "hello")
	sim.Run()
	if len(boxes[1].got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(boxes[1].got))
	}
	m := boxes[1].got[0]
	if m.from != 0 || m.payload != "hello" || m.at != 3*time.Millisecond {
		t.Errorf("delivery = %+v", m)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSelfSendIgnored(t *testing.T) {
	sim, _, boxes, envs := newNet(t, 1, 2, Constant{})
	envs[0].Send(0, "loop")
	sim.Run()
	if len(boxes[0].got) != 0 {
		t.Error("self-send delivered")
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	sim, _, boxes, envs := newNet(t, 1, 4, Constant{D: time.Millisecond})
	envs[2].Broadcast("q")
	sim.Run()
	for i, ib := range boxes {
		want := 1
		if i == 2 {
			want = 0
		}
		if len(ib.got) != want {
			t.Errorf("node %d got %d messages, want %d", i, len(ib.got), want)
		}
	}
}

func TestCrashStopsEverything(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 3, Constant{D: time.Millisecond})
	fired := false
	envs[1].After(5*time.Millisecond, func() { fired = true })

	sim.After(0, func() {
		net.Crash(1)
		envs[0].Send(1, "to-crashed") // delivery suppressed
		envs[1].Send(0, "from-crashed")
		envs[1].Broadcast("bcast-from-crashed")
	})
	sim.Run()
	if len(boxes[1].got) != 0 {
		t.Error("crashed node received a message")
	}
	if len(boxes[0].got) != 0 || len(boxes[2].got) != 0 {
		t.Error("crashed node's messages were sent")
	}
	if fired {
		t.Error("crashed node's timer fired")
	}
	if !net.crashed.Equal(ident.SetOf(1)) {
		t.Errorf("crashed = %v, want {p1}", net.crashed)
	}
}

func TestCrashMidFlight(t *testing.T) {
	// A message already in flight to a node that crashes before delivery is
	// not delivered (the process stopped executing).
	sim, net, boxes, envs := newNet(t, 1, 2, Constant{D: 10 * time.Millisecond})
	envs[0].Send(1, "late")
	sim.After(time.Millisecond, func() { net.Crash(1) })
	sim.Run()
	if len(boxes[1].got) != 0 {
		t.Error("message delivered to node that crashed before arrival")
	}
}

// lossy is the test loss model: a message is lost with probability p, drawn
// before the delay of the model it wraps.
type lossy struct {
	DelayModel
	p float64
}

func (l lossy) DelayLoss(r *rand.Rand, from, to ident.ID, now time.Duration) (time.Duration, bool) {
	if r.Float64() < l.p {
		return 0, false
	}
	return l.Delay(r, from, to, now), true
}

func TestPartitionAndHeal(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 4, Constant{})
	// Island {0,1}; {2,3} form the implicit rest island.
	net.Partition([]ident.ID{0, 1})
	if len(net.partitions) != 1 {
		t.Errorf("%d partitions active, want 1", len(net.partitions))
	}
	envs[0].Send(1, "same-island")
	envs[0].Send(2, "cross")
	envs[2].Send(3, "rest-island")
	envs[3].Send(1, "cross-back")
	sim.Run()
	if len(boxes[1].got) != 1 || len(boxes[3].got) != 1 {
		t.Error("intra-island traffic blocked")
	}
	if len(boxes[2].got) != 0 {
		t.Error("cross-island traffic delivered")
	}
	if st := net.Stats(); st.Sent != 4 || st.Dropped != 2 {
		t.Errorf("Sent/Dropped = %d/%d, want 4/2: a cut message is counted as sent and as dropped", st.Sent, st.Dropped)
	}
	if !net.Heal() {
		t.Error("Heal = false with an active partition")
	}
	if len(net.partitions) != 0 {
		t.Errorf("%d partitions active after heal, want 0", len(net.partitions))
	}
	envs[0].Send(2, "healed")
	sim.Run()
	if len(boxes[2].got) != 1 {
		t.Error("traffic still blocked after heal")
	}
	if net.Heal() {
		t.Error("Heal = true with no partition active")
	}
}

func TestPartitionsStack(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 4, Constant{})
	net.Partition([]ident.ID{0, 1})             // {0,1} | {2,3}
	net.Partition([]ident.ID{0}, []ident.ID{1}) // further splits 0 from 1
	envs[0].Send(1, "blocked-by-second")
	sim.Run()
	if len(boxes[1].got) != 0 {
		t.Error("nested partition did not apply")
	}
	net.Heal() // pops the second partition only
	envs[0].Send(1, "intra-island-again")
	envs[0].Send(2, "still-cross")
	sim.Run()
	if len(boxes[1].got) != 1 {
		t.Error("heal did not pop the most recent partition")
	}
	if len(boxes[2].got) != 0 {
		t.Error("outer partition vanished with the inner heal")
	}
}

func TestRecoverRevivesProcess(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 2, Constant{D: time.Millisecond})
	net.Crash(1)
	envs[0].Send(1, "while-down")
	sim.Run()
	if len(boxes[1].got) != 0 {
		t.Error("crashed node received a message")
	}
	net.Recover(1)
	if net.crashed.Has(1) {
		t.Error("p1 still crashed after Recover")
	}
	envs[0].Send(1, "after-recovery")
	envs[1].Send(0, "from-recovered")
	fired := false
	envs[1].After(time.Millisecond, func() { fired = true })
	sim.Run()
	if len(boxes[1].got) != 1 {
		t.Error("recovered node did not receive")
	}
	if len(boxes[0].got) != 1 {
		t.Error("recovered node could not send")
	}
	if !fired {
		t.Error("recovered node's timer suppressed")
	}
}

func TestNeighborsRestrictBroadcast(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 4, Constant{})
	net.SetNeighbors(0, ident.SetOf(1, 2))
	envs[0].Broadcast("q")
	sim.Run()
	if len(boxes[1].got) != 1 || len(boxes[2].got) != 1 {
		t.Error("neighbors did not receive broadcast")
	}
	if len(boxes[3].got) != 0 {
		t.Error("non-neighbor received broadcast")
	}
}

func TestNeighborsExcludeSelf(t *testing.T) {
	sim, _, boxes, envs := newNet(t, 1, 3, Constant{})
	// A neighborhood set that (incorrectly) includes self must not cause
	// self-delivery: ranges include self in the paper's definition.
	envs[0].net.SetNeighbors(0, ident.SetOf(0, 1))
	envs[0].Broadcast("q")
	sim.Run()
	if len(boxes[0].got) != 0 {
		t.Error("self received own broadcast")
	}
	if len(boxes[1].got) != 1 {
		t.Error("neighbor missing broadcast")
	}
}

func TestSizeAccounting(t *testing.T) {
	sim := des.New(1)
	net := New(sim, Config{Delay: Constant{}, SizeOf: func(p any) int { return len(p.(string)) }})
	net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	net.AddNode(1, node.HandlerFunc(func(ident.ID, any) {}))
	net.Env(0).Send(1, "12345")
	sim.Run()
	if net.Stats().Bytes != 5 {
		t.Errorf("Bytes = %d, want 5", net.Stats().Bytes)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	sim := des.New(1)
	net := New(sim, Config{Delay: Constant{}})
	net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
}

func TestMissingDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without Delay did not panic")
		}
	}()
	New(des.New(1), Config{})
}

func TestUnknownEnvPanics(t *testing.T) {
	sim := des.New(1)
	net := New(sim, Config{Delay: Constant{}})
	defer func() {
		if recover() == nil {
			t.Error("Env of unknown node did not panic")
		}
	}()
	net.Env(3)
}

func TestEnvAfterTimerStop(t *testing.T) {
	sim, _, _, envs := newNet(t, 1, 2, Constant{})
	fired := false
	tm := envs[0].After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop = false on pending timer")
	}
	sim.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

// TestTimerArmedBeforeCrash: the kernel holds a process's timer as (owner,
// callback) and asks the network about the owner when the timer comes due.
// A callback suppressed that way still counts as a step, and one that comes
// due after a recovery runs.
func TestTimerArmedBeforeCrash(t *testing.T) {
	sim, net, _, envs := newNet(t, 1, 2, Constant{})
	var fired []time.Duration
	for _, d := range []time.Duration{2, 4, 6} {
		envs[1].After(d*time.Millisecond, func() { fired = append(fired, sim.Now()) })
	}
	sim.At(3*time.Millisecond, func() { net.Crash(1) })
	sim.At(5*time.Millisecond, func() { net.Recover(1) })
	sim.Run()
	if len(fired) != 2 || fired[0] != 2*time.Millisecond || fired[1] != 6*time.Millisecond {
		t.Errorf("fired at %v, want [2ms 6ms]: the 4ms timer came due while its owner was down", fired)
	}
	if sim.Steps() != 5 {
		t.Errorf("Steps = %d, want 5: three timers, suppressed one included, and two fault events", sim.Steps())
	}
}

// TestEnvTimerReset: a slot of a process's deadline table set again fires at
// its new time only, and a Set by a crashed process is refused like its
// After is — the slot is cleared for good, where keeping it would have let it
// fire after a recovery.
func TestEnvTimerReset(t *testing.T) {
	sim, net, _, envs := newNet(t, 1, 2, Constant{})
	var fired []time.Duration
	d := envs[1].Deadlines(1, func(int) { fired = append(fired, sim.Now()) })
	d.Set(0, 2*time.Millisecond)
	sim.At(time.Millisecond, func() { d.Set(0, 3*time.Millisecond) })
	sim.At(3*time.Millisecond, func() {
		net.Crash(1)
		d.Set(0, 5*time.Millisecond)
	})
	sim.At(6*time.Millisecond, func() { net.Recover(1) })
	sim.Run()
	if len(fired) != 0 {
		t.Errorf("fired at %v: re-set to 4ms and then cleared by a Set while crashed", fired)
	}
	if sim.Pending() != 0 || sim.Steps() != 3 {
		t.Errorf("Pending = %d, Steps = %d; want 0 and the three fault events", sim.Pending(), sim.Steps())
	}
}

func TestDeadTimerDroppedAtArm(t *testing.T) {
	// Timers armed by an already-crashed process must not reach the kernel
	// queue: long downtimes otherwise accumulate dead events (queue
	// pressure), even though the callbacks are suppressed at fire time.
	sim, net, _, envs := newNet(t, 1, 2, Constant{})
	net.Crash(1)
	before := sim.Pending()
	fired := false
	var timers []node.Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, envs[1].After(time.Hour, func() { fired = true }))
	}
	if got := sim.Pending(); got != before {
		t.Fatalf("Pending = %d after arming dead timers, want %d", got, before)
	}
	for _, tm := range timers {
		if tm.Stop() {
			t.Fatal("Stop = true on a dead timer")
		}
	}
	sim.Run()
	if fired {
		t.Error("dead timer fired")
	}
}

func TestDeadTimersDoNotPerturbTrace(t *testing.T) {
	// Arming timers while crashed must leave the simulation's observable
	// trace byte-identical to a run that never armed them: the RNG stream,
	// delivery times and step count cannot shift.
	run := func(armDeadTimers bool) ([]time.Duration, uint64) {
		sim := des.New(42)
		net := New(sim, Config{Delay: lossy{Exponential{Min: time.Millisecond, Mean: 5 * time.Millisecond}, 0.1}})
		var tr []time.Duration
		for i := 0; i < 4; i++ {
			net.AddNode(ident.ID(i), node.HandlerFunc(func(ident.ID, any) { tr = append(tr, sim.Now()) }))
		}
		net.Crash(3)
		if armDeadTimers {
			for i := 0; i < 100; i++ {
				net.Env(3).After(time.Duration(i)*time.Millisecond, func() {})
			}
		}
		for round := 0; round < 3; round++ {
			at := time.Duration(round) * 10 * time.Millisecond
			sim.At(at, func() {
				for i := 0; i < 3; i++ {
					net.Env(ident.ID(i)).Broadcast(round)
				}
			})
		}
		sim.Run()
		return tr, sim.Steps()
	}
	gotTr, gotSteps := run(true)
	wantTr, wantSteps := run(false)
	if gotSteps != wantSteps {
		t.Errorf("Steps = %d with dead timers, %d without", gotSteps, wantSteps)
	}
	if len(gotTr) != len(wantTr) {
		t.Fatalf("trace length %d vs %d", len(gotTr), len(wantTr))
	}
	for i := range gotTr {
		if gotTr[i] != wantTr[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, gotTr[i], wantTr[i])
		}
	}
}

func TestPartitionDuplicateIslandPanics(t *testing.T) {
	_, net, _, _ := newNet(t, 1, 4, Constant{})
	defer func() {
		if recover() == nil {
			t.Error("process in two islands did not panic")
		}
	}()
	net.Partition([]ident.ID{0, 1}, []ident.ID{1, 2})
}

func TestPartitionDuplicateWithinIslandPanics(t *testing.T) {
	_, net, _, _ := newNet(t, 1, 4, Constant{})
	defer func() {
		if recover() == nil {
			t.Error("process listed twice in one island did not panic")
		}
	}()
	net.Partition([]ident.ID{0, 0})
}

func TestPartitionCoversLateNodes(t *testing.T) {
	// A node registered after the partition was installed belongs to the
	// implicit island, like any process the partition did not list.
	sim, net, _, _ := newNet(t, 1, 3, Constant{})
	net.Partition([]ident.ID{0})
	late := &inbox{sim: sim}
	net.AddNode(7, late)
	net.Env(0).Send(7, "cross")  // 0 is alone in its island
	net.Env(1).Send(7, "within") // 1 and 7 share the implicit island
	sim.Run()
	if len(late.got) != 1 || late.got[0].payload != "within" {
		t.Errorf("late node deliveries = %+v, want only the implicit-island message", late.got)
	}
}

func TestBroadcastFanoutTracksTopologyChanges(t *testing.T) {
	// The cached fan-out lists must be invalidated by SetNeighbors and by
	// AddNode (the full-mesh fan-out grows with the membership).
	sim, net, boxes, envs := newNet(t, 1, 3, Constant{})
	envs[0].Broadcast("a") // caches 0's full-mesh fan-out {1, 2}
	late := &inbox{sim: sim}
	net.AddNode(3, late)
	envs[0].Broadcast("b")
	sim.Run()
	if len(late.got) != 1 {
		t.Errorf("node added after a broadcast got %d messages, want 1", len(late.got))
	}
	net.SetNeighbors(0, ident.SetOf(2))
	envs[0].Broadcast("c")
	sim.Run()
	if len(boxes[1].got) != 2 {
		t.Errorf("node 1 got %d messages, want 2 (excluded by SetNeighbors)", len(boxes[1].got))
	}
	if len(boxes[2].got) != 3 {
		t.Errorf("node 2 got %d messages, want 3", len(boxes[2].got))
	}
	net.SetNeighbors(0, ident.SetOf(1, 2))
	envs[0].Broadcast("d")
	sim.Run()
	if len(boxes[1].got) != 3 {
		t.Errorf("node 1 got %d messages after re-adding, want 3", len(boxes[1].got))
	}
}

// TestBroadcastFanoutAfterRestore: a Restore rolls the cached fan-out lists
// back with the topology, also when the restored epoch equals the one a
// list was cached at after the checkpoint under another neighbourhood, and
// the partition layers restored with it cut what they cut.
func TestBroadcastFanoutAfterRestore(t *testing.T) {
	sim, net, boxes, envs := newNet(t, 1, 4, Constant{})
	mesh := net.Snapshot()
	net.SetNeighbors(0, ident.SetOf(1))
	envs[0].Broadcast("a") // caches {1} at the epoch after the checkpoint's
	sim.Run()
	net.Restore(mesh)
	net.SetNeighbors(0, ident.SetOf(2)) // that epoch again, another neighbourhood
	envs[0].Broadcast("b")
	sim.Run()
	net.Restore(mesh)
	envs[0].Broadcast("c") // the full mesh
	sim.Run()
	net.Partition([]ident.ID{0, 3})
	parted := net.Snapshot()
	net.Heal()
	envs[0].Broadcast("d")
	sim.Run()
	net.Restore(parted)
	envs[0].Broadcast("e") // cut off from 1 and 2
	sim.Run()
	for id, want := range []string{"", "acd", "bcd", "cde"} {
		got := ""
		for _, m := range boxes[id].got {
			got += m.payload.(string)
		}
		if got != want {
			t.Errorf("node %d got %q, want %q", id, got, want)
		}
	}
}

// --- Delay model tests ---

func TestConstantDelay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := Constant{D: 5 * time.Millisecond}
	if c.Delay(r, 0, 1, 0) != 5*time.Millisecond {
		t.Error("Constant delay wrong")
	}
}

func TestUniformDelayBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	u := Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Delay(r, 0, 1, 0)
		if d < u.Min || d > u.Max {
			t.Fatalf("Uniform sample %v outside [%v,%v]", d, u.Min, u.Max)
		}
	}
	degenerate := Uniform{Min: time.Second, Max: time.Second}
	if degenerate.Delay(r, 0, 1, 0) != time.Second {
		t.Error("degenerate Uniform wrong")
	}
}

func TestExponentialDelay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e := Exponential{Min: time.Millisecond, Mean: 2 * time.Millisecond, Cap: 50 * time.Millisecond}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := e.Delay(r, 0, 1, 0)
		if d < e.Min || d > e.Cap {
			t.Fatalf("Exponential sample %v outside bounds", d)
		}
		sum += d
	}
	mean := sum / n
	want := 3 * time.Millisecond // Min + Mean
	if mean < want-500*time.Microsecond || mean > want+500*time.Microsecond {
		t.Errorf("Exponential mean = %v, want ≈%v", mean, want)
	}
}

func TestParetoDelay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := Pareto{Scale: time.Millisecond, Alpha: 2, Cap: time.Second}
	for i := 0; i < 10000; i++ {
		d := p.Delay(r, 0, 1, 0)
		if d < p.Scale || d > p.Cap {
			t.Fatalf("Pareto sample %v outside [scale, cap]", d)
		}
	}
	// Alpha <= 0 falls back to 1 rather than panicking.
	bad := Pareto{Scale: time.Millisecond, Alpha: 0, Cap: time.Second}
	if d := bad.Delay(r, 0, 1, 0); d < time.Millisecond {
		t.Errorf("Pareto with alpha=0 sample %v", d)
	}
}

func TestBiasDelay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := Bias{
		Base:    Constant{D: 100 * time.Millisecond},
		Fast:    Constant{D: time.Millisecond},
		Favored: ident.SetOf(3),
	}
	if d := b.Delay(r, 3, 0, 0); d != time.Millisecond {
		t.Errorf("favored sender delay = %v, want 1ms", d)
	}
	if d := b.Delay(r, 0, 3, 0); d != time.Millisecond {
		t.Errorf("favored receiver delay = %v, want 1ms (round trips must be fast)", d)
	}
	if d := b.Delay(r, 0, 1, 0); d != 100*time.Millisecond {
		t.Errorf("unfavored delay = %v, want 100ms", d)
	}
}

func TestDisturbanceDelay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := Disturbance{
		Base:   Constant{D: time.Millisecond},
		Nodes:  ident.SetOf(1),
		Start:  10 * time.Millisecond,
		End:    20 * time.Millisecond,
		Factor: 50,
	}
	if got := d.Delay(r, 1, 0, 5*time.Millisecond); got != time.Millisecond {
		t.Errorf("before window = %v", got)
	}
	if got := d.Delay(r, 1, 0, 15*time.Millisecond); got != 50*time.Millisecond {
		t.Errorf("inside window (from) = %v, want 50ms", got)
	}
	if got := d.Delay(r, 0, 1, 15*time.Millisecond); got != 50*time.Millisecond {
		t.Errorf("inside window (to) = %v, want 50ms", got)
	}
	if got := d.Delay(r, 0, 2, 15*time.Millisecond); got != time.Millisecond {
		t.Errorf("inside window, untouched nodes = %v, want 1ms", got)
	}
	if got := d.Delay(r, 1, 0, 20*time.Millisecond); got != time.Millisecond {
		t.Errorf("End is exclusive; got %v", got)
	}
}

func TestQuickNetworkDeterminism(t *testing.T) {
	// Same seed + same workload ⇒ identical delivery traces.
	run := func(seed int64) []time.Duration {
		sim := des.New(seed)
		net := New(sim, Config{Delay: lossy{Exponential{Min: time.Millisecond, Mean: 5 * time.Millisecond}, 0.1}})
		var tr []time.Duration
		for i := 0; i < 5; i++ {
			net.AddNode(ident.ID(i), node.HandlerFunc(func(ident.ID, any) { tr = append(tr, sim.Now()) }))
		}
		for i := 0; i < 5; i++ {
			net.Env(ident.ID(i)).Broadcast(i)
		}
		sim.Run()
		return tr
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
