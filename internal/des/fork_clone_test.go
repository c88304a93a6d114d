package des

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"asyncfd/internal/deadline"
	"asyncfd/internal/ident"
)

// fork_clone_test.go pins the structural invariants of Snapshot/Restore
// copying that the observational differential (fork_fuzz_test.go) cannot see
// directly: a copied heap indexes into the copy's own slab with no index both
// queued and free, and a forked child is fully detached — no child mutation
// may perturb the parent's structure.

// forkOf returns a new, independent Simulator that is a deep copy of s: a
// fresh kernel restored from s's checkpoint, on s's sink. Pending callbacks
// and payloads are shared by reference, so it only makes sense when those
// touch no state outside the kernel.
func forkOf(s *Simulator) *Simulator {
	c := New(0)
	c.Restore(s.Snapshot())
	c.SetSink(s.sink)
	return c
}

// queuedIndices collects every slab index the simulator considers pending:
// the heap's.
func queuedIndices(s *Simulator) []int32 {
	out := make([]int32, 0, len(s.heap))
	for _, x := range s.heap {
		out = append(out, x.i)
	}
	return out
}

// slabViolation returns the first inconsistency of the simulator's
// scheduling structures, or "": a slab index on the free list twice, or
// queued out of range, twice or while free; a heap entry out of heap order
// or keyed other than its event; a deadline table that tableViolation
// faults; or a Pending() count that is not the deliveries, callbacks and set
// slots queued.
func slabViolation(s *Simulator) string {
	free := make(map[int32]bool, len(s.free))
	for _, idx := range s.free {
		if free[idx] {
			return fmt.Sprintf("slab index %d appears twice on the free list", idx)
		}
		free[idx] = true
	}
	queued := make(map[int32]bool)
	pending := 0
	for _, idx := range queuedIndices(s) {
		switch {
		case idx < 0 || int(idx) >= len(s.events):
			return fmt.Sprintf("queued slab index %d out of range [0,%d)", idx, len(s.events))
		case free[idx]:
			return fmt.Sprintf("slab index %d is both queued and on the free list", idx)
		case queued[idx]:
			return fmt.Sprintf("slab index %d is queued twice", idx)
		}
		queued[idx] = true
		switch e := &s.events[idx]; e.kind {
		case evFanout:
			pending += len(s.fans[idx].items) - int(s.fans[idx].head)
		case evTable:
			if !e.stopped && s.tables[e.from].ev != idx {
				return fmt.Sprintf("event %d is live but not the event of its table %d", idx, e.from)
			}
		default:
			pending++
		}
	}
	for k := range s.tables {
		tb := &s.tables[k]
		if v := tableViolation(s, tb, queued); v != "" {
			return fmt.Sprintf("table %d: %s", k, v)
		}
		pending += tb.set()
	}
	if pending != s.pending {
		return fmt.Sprintf("Pending() = %d, but %d deliveries, callbacks and slots are queued", s.pending, pending)
	}
	if len(s.fans) > len(s.events) {
		return fmt.Sprintf("the fan table has %d entries for %d slab slots", len(s.fans), len(s.events))
	}
	for idx, f := range s.fans {
		if s.events[idx].kind != evFanout && (f.items != nil || f.head != 0) {
			return fmt.Sprintf("slot %d, of kind %d, has a fan of %d items", idx, s.events[idx].kind, len(f.items))
		}
	}
	for k, x := range s.heap {
		if e := &s.events[x.i]; e.at != x.at || e.seq != x.seq {
			return fmt.Sprintf("heap entry %d is keyed (%v, %d), its event %d, of kind %d, is keyed (%v, %d)",
				k, x.at, x.seq, x.i, e.kind, e.at, e.seq)
		}
		if k > 0 && x.less(&s.heap[(k-1)/2]) {
			return fmt.Sprintf("heap entry %d sorts before its parent", k)
		}
	}
	return ""
}

// tableViolation returns the first inconsistency of deadline table tb's
// kernel part, or "": an event that is not queued live under the time the
// table records, or under a key after the table's least (or is queued while
// no slot is set), or a recorded slot that does not hold the key the event
// is queued under. The list's own structure is internal/deadline's to check.
func tableViolation(s *Simulator, tb *table, queued map[int32]bool) string {
	keys := tb.keys()
	switch {
	case len(keys) == 0 && tb.ev != noEvent:
		return fmt.Sprintf("no slot is set but event %d is", tb.ev)
	case len(keys) == 0:
	case tb.ev == noEvent || !queued[tb.ev] || s.events[tb.ev].stopped:
		return fmt.Sprintf("slots are set but no live event is queued (%d)", tb.ev)
	default:
		e, least := &s.events[tb.ev], keys[0]
		if e.at != tb.at {
			return fmt.Sprintf("event queued at (%v, %d), the table records %v", e.at, e.seq, tb.at)
		}
		if ke := (entry{at: e.at, seq: e.seq}); least.less(&ke) {
			return fmt.Sprintf("event queued at (%v, %d), after the least slot %d (%v, %d)", e.at, e.seq, least.i, least.at, least.seq)
		}
		if k, ok := tb.keyOf(tb.slot); tb.slot != deadline.None && (!ok || k.at != e.at || k.seq != e.seq) {
			return fmt.Sprintf("event queued at (%v, %d), but the table records slot %d, keyed (%v, %d) (set: %v)", e.at, e.seq, tb.slot, k.at, k.seq, ok)
		}
	}
	return ""
}

// keyOf returns slot's key and whether it is set.
func (t *table) keyOf(slot int32) (entry, bool) {
	for _, k := range t.keys() {
		if k.i == slot {
			return k, true
		}
	}
	return entry{}, false
}

// keys returns the table's set slots with their keys, in the list's order,
// taking them from the head of a copy of it.
func (t *table) keys() []entry {
	var c deadline.List
	c.Copy(&t.list)
	var out []entry
	for slot := c.Head(); slot != deadline.None; slot = c.Head() {
		at, seq := c.Key(slot)
		if !c.Take(slot) {
			break
		}
		out = append(out, entry{at: at, seq: seq, i: slot})
	}
	return out
}

// set is the number of the table's slots that are set.
func (t *table) set() int { return len(t.keys()) }

// order renders the list as slot(at,seq) in order.
func (t *table) order() string {
	var b strings.Builder
	for _, k := range t.keys() {
		fmt.Fprintf(&b, " %d(%d,%d)", k.i, k.at, k.seq)
	}
	return b.String()
}

// checkSlabInvariants fails t with the simulator's first slabViolation.
func checkSlabInvariants(t *testing.T, label string, s *Simulator) {
	t.Helper()
	if v := slabViolation(s); v != "" {
		t.Errorf("%s: %s", label, v)
	}
}

// structuralFingerprint renders everything reachable from the simulator's
// scheduling structures into one comparable string.
func structuralFingerprint(s *Simulator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d seq=%d stepped=%d pending=%d seed=%d draws=%d\n",
		s.now, s.seq, s.stepped, s.pending, s.stream.seed, s.stream.draws)
	fmt.Fprintf(&b, "free=%v heap=%v\n", s.free, s.heap)
	for k, tb := range s.tables {
		fmt.Fprintf(&b, "table%d owner=%d ev=%d queued=%d slot=%d list=%v\n",
			k, tb.owner, tb.ev, tb.at, tb.slot, tb.list)
	}
	for i, e := range s.events {
		fmt.Fprintf(&b, "ev%d at=%d seq=%d gen=%d stopped=%v kind=%d %d->%d payload=%v\n",
			i, e.at, e.seq, e.gen, e.stopped, e.kind, e.from, e.to, e.payload != nil)
		if e.kind == evFanout {
			fmt.Fprintf(&b, "  items=%v head=%d\n", s.fans[i].items, s.fans[i].head)
		}
	}
	return b.String()
}

// loadSim builds a simulator mid-run with every structural feature present:
// recycled free slots, events due at the current instant, stopped entries,
// messages and fan-out nodes, far-horizon timers, and a deadline table
// holding a slot linked after a walk from the tail and one linked at the
// head, whose event waits to be re-keyed beside one it abandoned.
func loadSim() (s *Simulator, fired *int, stopped int) {
	s, _ = newSunk(7)
	fired = new(int)
	bump := func() { *fired++ }
	deliver := func(ident.ID) { *fired++ }
	for i := 0; i < 8; i++ {
		s.After(time.Duration(i)*time.Millisecond, bump)
	}
	far := s.After(time.Hour, bump)
	s.At(30*time.Second, bump)
	recv := make([]Receiver, 5)
	for j := range recv {
		recv[j] = Receiver{D: time.Duration(j%2) * 250 * time.Microsecond, To: ident.ID(j)}
	}
	s.Fanout(9, deliver, recv)
	s.Send(40*time.Millisecond, 9, 1, deliver)
	table := s.Deadlines(2, 4, func(int) { *fired++ })
	table.Set(0, 20*time.Millisecond)
	table.Set(1, 30*time.Millisecond)
	table.Set(0, 50*time.Millisecond) // pushed back to the tail: re-keyed where it surfaces
	table.Set(3, 40*time.Millisecond) // walks back past slot 0
	stop := s.After(4500*time.Microsecond, bump)
	s.RunUntil(2 * time.Millisecond) // recycle a few slots onto the free list
	// Stopped events stay on Pending()'s count until the kernel reaps them.
	for _, tm := range []*Timer{stop, far} {
		if tm.Stop() {
			stopped++
		}
	}
	s.After(0, bump)               // due at the current instant
	table.Set(2, time.Millisecond) // below the head, linked there, and before the table's queued key, not at the root: abandoned
	s.Fanout(9, deliver, []Receiver{{D: 0, To: 1}, {D: time.Millisecond, To: 2}})
	return s, fired, stopped
}

// TestForkCloneInvariants forks a loaded simulator and checks, for parent
// and child alike: the slab invariants hold, child mutations
// (Stop/After/Fanout/Set/Clear/Step/RunUntil) never change the parent's
// structural fingerprint, and the parent then drains its own schedule.
func TestForkCloneInvariants(t *testing.T) {
	parent, parentFired, parentStopped := loadSim()
	if got := parent.tables[0].order(); got != " 2(3000000,22) 1(30000000,17) 3(40000000,19) 0(50000000,18)" {
		t.Fatalf("the loaded table holds [%s], want slot 2 linked at the head and slot 3 walked in before slot 0", got)
	}
	child := forkOf(parent)
	checkSlabInvariants(t, "parent", parent)
	checkSlabInvariants(t, "child", child)

	if got, want := structuralFingerprint(child), structuralFingerprint(parent); got != want {
		t.Fatalf("fork is not structurally identical:\nparent:\n%s\nchild:\n%s", want, got)
	}

	before := structuralFingerprint(parent)
	// Mutate the child every way the API allows.
	childExtra := 0
	tm := child.After(3*time.Millisecond, func() { childExtra++ })
	child.Fanout(9, func(ident.ID) { childExtra++ }, []Receiver{{D: 0, To: 1}, {D: time.Minute, To: 2}})
	tm.Stop()
	child.tables[0].fire = func(int) { childExtra++ }
	(&Deadlines{s: child, t: 0}).Set(2, 0)
	(&Deadlines{s: child, t: 0}).Clear(1)
	child.Step()
	child.RunUntil(child.Now() + 10*time.Millisecond)
	checkSlabInvariants(t, "child after mutation", child)
	if got := structuralFingerprint(parent); got != before {
		t.Fatalf("child mutation perturbed the parent:\nbefore:\n%s\nafter:\n%s", before, got)
	}

	// The parent still drains its original schedule: every pending
	// callback except the stopped (not yet reaped) ones fires once.
	pend := parent.Pending()
	beforeFired := *parentFired
	parent.RunUntil(2 * time.Hour)
	if *parentFired != beforeFired+pend-parentStopped {
		t.Errorf("parent drained %d callbacks, want %d", *parentFired-beforeFired, pend-parentStopped)
	}
	checkSlabInvariants(t, "parent drained", parent)
}

// TestRestoreRepeatable pins that one snapshot supports any number of
// restores: three replays of the same tail produce identical fire sequences
// and identical final clocks.
func TestRestoreRepeatable(t *testing.T) {
	s := New(3)
	var fires []string
	for i := 0; i < 6; i++ {
		i := i
		s.After(time.Duration(i+1)*time.Millisecond, func() {
			fires = append(fires, fmt.Sprintf("%d@%d#%d", i, s.Now(), s.Rand().Int63n(100)))
		})
	}
	s.RunUntil(2500 * time.Microsecond)
	snap := s.Snapshot()
	prefix := len(fires)

	var runs []string
	for round := 0; round < 3; round++ {
		s.Restore(snap)
		fires = fires[:prefix]
		s.RunUntil(10 * time.Millisecond)
		runs = append(runs, strings.Join(fires[prefix:], ","))
	}
	if runs[0] == "" {
		t.Fatal("replay fired nothing")
	}
	if runs[1] != runs[0] || runs[2] != runs[0] {
		t.Fatalf("replays diverged: %q / %q / %q", runs[0], runs[1], runs[2])
	}
}
