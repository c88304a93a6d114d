package des

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"asyncfd/internal/ident"
)

// fuzz_test.go is the kernel-level differential harness: a byte-coded script
// drives an identical workload of After/At/AfterOwned/Stop/Send/Fanout/
// Step/RunUntil calls and deadline-table Sets and Clears against the kernel
// and against the reference model (model_test.go), where a table is a timer
// per slot driven by Stop + After, and asserts the two are observationally
// identical — same fire order, same Now()/Steps() at every checkpoint, at
// which the kernel's slab, tables and heap must also be consistent. The
// committed seed corpus (testdata/fuzz/FuzzQueueEquivalence) covers the
// regression-prone shapes: same-instant ties, stopped-head reaping,
// far-horizon timers, fan-outs, re-arms of fired, stopped, due-now and
// earlier-moving timers, RunUntil stopping between events, an idle gap; and
// for the tables, slots and a message tied at one instant, a Set below the
// key the table's event is queued under, a Clear of the least slot, expiries
// and Sets while the owner is down, a callback that sets its own table, Sets
// below the run's tail, a slot that moves from the side heap back to the
// run, and a Clear of the run's head while the side heap's root is next.
// CI runs the target with a short -fuzztime budget on every push.

// scriptTimer is a timer a script may later stop or re-arm: the handle and
// what it was armed with.
type scriptTimer struct {
	tm    timer
	owner ident.ID
	fn    func()
}

// scriptHarness interprets op scripts against one scheduler. Its own state
// (timers, eventID, the sink's down set) can be checkpointed and rolled back
// alongside the kernel: see fork_fuzz_test.go. Its deadline tables are made
// with it, before any op, and need no rolling back: their slots are the
// scheduler's state.
type scriptHarness struct {
	s       sched
	sink    *testSink
	out     *[]string // swappable so a replay records into a fresh trace
	timers  []scriptTimer
	tables  []deadlines
	eventID int
}

// Each harness has scriptTables deadline tables of scriptSlots slots; table k
// is owned by process k+1, which op 11 crashes and recovers.
const (
	scriptTables = 2
	scriptSlots  = 4
)

// newScriptHarness returns a harness on the scheduler build makes (onKernel
// or onModel).
func newScriptHarness(build func(*testSink) sched, out *[]string) *scriptHarness {
	sink := &testSink{}
	h := &scriptHarness{s: build(sink), sink: sink, out: out}
	for k := 0; k < scriptTables; k++ {
		h.tables = append(h.tables, h.s.deadlines(ident.ID(k+1), scriptSlots, h.expire(k)))
	}
	return h
}

// expire returns table k's callback. It records the slot and the instant,
// draws from the kernel RNG on even slots, and the last slot sets the
// table's first again: a callback that sets its own table.
func (h *scriptHarness) expire(k int) func(slot int) {
	return func(slot int) {
		line := fmt.Sprintf("T%d.%d@%d", k, slot, h.s.Now())
		if slot%2 == 0 {
			line += fmt.Sprintf("#%d", h.s.Rand().Int63n(1024))
		}
		*h.out = append(*h.out, line)
		if slot == scriptSlots-1 {
			h.tables[k].Set(0, time.Duration(h.s.Now()%7)*time.Microsecond)
		}
	}
}

// mk returns the next callback. A deterministic subset of callbacks draws
// from the kernel RNG (the draw value lands in the trace, so a replay with a
// mis-positioned RNG stream diverges) and schedules nested work (same rule
// on every kernel compared; the id cap bounds the chain).
func (h *scriptHarness) mk() func() {
	id := h.eventID
	h.eventID++
	return func() {
		line := fmt.Sprintf("%d@%d", id, h.s.Now())
		if id%3 == 0 {
			line += fmt.Sprintf("#%d", h.s.Rand().Int63n(1024))
		}
		*h.out = append(*h.out, line)
		if id%7 == 3 && h.eventID < 4096 {
			h.s.after(time.Duration(id%5)*time.Microsecond, ident.Nil, h.mk())
		}
	}
}

// mkMsg returns the next message payload: the testSink runs it per delivery.
func (h *scriptHarness) mkMsg() any {
	fn := h.mk()
	return func(to ident.ID) {
		*h.out = append(*h.out, fmt.Sprintf("to%d", to))
		fn()
	}
}

// mark records a checkpoint, and on the kernel the first inconsistency of its
// scheduling structures, if any, as a line the model's trace cannot have.
func (h *scriptHarness) mark() {
	*h.out = append(*h.out, fmt.Sprintf("%d/%d/%d", h.s.Now(), h.s.Steps(), h.s.Pending()))
	if k, ok := h.s.(kernelSched); ok {
		if v := slabViolation(k.Simulator); v != "" {
			*h.out = append(*h.out, "inconsistent: "+v)
		}
	}
}

func (h *scriptHarness) arm(tm timer, owner ident.ID, fn func()) {
	h.timers = append(h.timers, scriptTimer{tm: tm, owner: owner, fn: fn})
}

// scriptOps is the size of the op alphabet.
const scriptOps = 14

// interp runs data as an op stream. The interpretation is fully
// deterministic in data, so two runs see byte-for-byte the same workload.
func (h *scriptHarness) interp(data []byte) {
	s := h.s
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	next16 := func() time.Duration {
		return time.Duration(int(next())<<8 | int(next()))
	}
	for pos < len(data) && h.eventID < 4096 {
		op := next()
		switch op % scriptOps {
		case 0, 1: // near-horizon After, µs scale: the dense common case
			s.after(next16()*time.Microsecond, ident.Nil, h.mk())
		case 2: // absolute At, including already-passed instants (clamped)
			fn := h.mk()
			h.arm(s.at(s.Now()+next16()*time.Microsecond-32*time.Millisecond, fn), ident.Nil, fn)
		case 3: // far-horizon After, up to ~18.6h (65535ms << 10): timers
			// that sit deep in the heap under the near-term churn
			s.after(next16()*time.Millisecond<<(next()%11), ident.Nil, h.mk())
		case 4: // Stop a previously returned timer
			if len(h.timers) > 0 {
				h.timers[int(next())%len(h.timers)].tm.Stop()
			}
		case 5:
			s.Step()
			h.mark()
		case 6:
			s.RunUntil(s.Now() + next16()*time.Microsecond)
			h.mark()
		case 7: // fan-out with same-instant and spread deliveries
			recv := make([]Receiver, int(next())%6+2)
			for j := range recv {
				recv[j] = Receiver{D: time.Duration(next()%8) * 500 * time.Microsecond, To: ident.ID(j)}
			}
			s.Fanout(9, h.mkMsg(), recv)
		case 8: // unicast message
			s.Send(next16()*time.Microsecond, 9, ident.ID(next()%4), h.mkMsg())
		case 9: // re-arm a timer by Stop + After: whatever state the timer is
			// in (pending, due now, fired, stopped) and whichever way the new
			// time lies, the callback next runs d from now. An op byte of
			// 9 + 14k doubles d k times.
			if len(h.timers) > 0 {
				t := &h.timers[int(next())%len(h.timers)]
				d := next16() * time.Microsecond << (op / scriptOps)
				t.tm.Stop()
				t.tm = s.after(d, t.owner, t.fn)
			}
		case 10: // a process's timer: suppressed if the owner is down when due
			fn, owner := h.mk(), ident.ID(next()%4)
			h.arm(s.after(next16()*time.Microsecond, owner, fn), owner, fn)
		case 11: // crash or recover a timer owner
			if p := ident.ID(next() % 4); h.sink.down.Has(p) {
				h.sink.down.Remove(p)
			} else {
				h.sink.down.Add(p)
			}
		case 12: // set a table's slot, d from now; an op byte of 12 + 14k
			// doubles d k times
			tb, slot := h.tables[int(next())%scriptTables], int(next())%scriptSlots
			tb.Set(slot, next16()*time.Microsecond<<(op/scriptOps))
		case 13: // clear a table's slot
			h.tables[int(next())%scriptTables].Clear(int(next()) % scriptSlots)
		}
		if next()%4 == 0 { // sprinkle timers eligible for Stop and re-arm
			fn := h.mk()
			h.arm(s.after(next16()*time.Microsecond, ident.Nil, fn), ident.Nil, fn)
		}
	}
}

// drain steps the simulator dry (the nested-scheduling rule is subcritical,
// but a fuzz harness should never be able to hang: capped).
func (h *scriptHarness) drain() {
	for i := 0; i < 1_000_000 && h.s.Step(); i++ {
	}
	h.mark()
}

// runScript is one whole script on a fresh scheduler: everything observable
// about the run, in order.
func runScript(build func(*testSink) sched, data []byte) []string {
	var out []string
	h := newScriptHarness(build, &out)
	h.interp(data)
	h.mark()
	h.drain()
	return out
}

// firstDivergence returns a description of where two traces part, or "".
func firstDivergence(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d lines vs %d", len(a), len(b))
	}
	return ""
}

// scriptDivergence runs data on the kernel and on the model and returns the
// first difference found, or "". Pending() is left out: the kernel counts
// stopped timers until it reclaims them.
func scriptDivergence(data []byte) string {
	kernel := withoutPending(runScript(onKernel, data))
	if d := firstDivergence(kernel, withoutPending(runScript(onModel, data))); d != "" {
		return "kernel vs model diverged at " + d
	}
	return ""
}

// withoutPending strips the Pending() field from a trace's checkpoint lines
// ("now/steps/pending"; fire lines hold no slash).
func withoutPending(trace []string) []string {
	out := make([]string, len(trace))
	for i, line := range trace {
		var now, steps, pend int64
		if n, _ := fmt.Sscanf(line, "%d/%d/%d", &now, &steps, &pend); n == 3 {
			line = fmt.Sprintf("%d/%d", now, steps)
		}
		out[i] = line
	}
	return out
}

// FuzzQueueEquivalence drives random interleavings of the op alphabet
// against the kernel and against the reference model, and asserts identical
// observable behavior. Seeds mirror the committed corpus.
func FuzzQueueEquivalence(f *testing.F) {
	for _, seed := range queueScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		if d := scriptDivergence(data); d != "" {
			t.Fatal(d)
		}
	})
}

// queueScriptSeeds are hand-built op streams covering the shapes an ordering
// or a re-keying bug is most likely to break on; they are also
// committed as the fuzz seed corpus under testdata/fuzz/FuzzQueueEquivalence.
func queueScriptSeeds() [][]byte {
	return [][]byte{
		// same-instant ties: a burst of zero-delay Afters and fan-outs
		{0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 3, 7, 4, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1},
		// stopped-head reaping: schedule, stop, step
		{0, 1, 0, 0, 4, 0, 1, 4, 1, 1, 5, 2, 4, 0, 3, 5, 1, 6, 255, 255, 0},
		// far-horizon timers interleaved with near ones
		{3, 255, 255, 3, 0, 0, 16, 1, 3, 127, 0, 2, 6, 8, 0, 0, 3, 1, 1, 1, 5, 0},
		// fan-outs crossing RunUntil boundaries
		{7, 5, 0, 1, 2, 3, 4, 5, 6, 6, 16, 0, 0, 7, 3, 7, 7, 7, 1, 5, 0, 5, 0},
		// mixed soup exercising the first eight opcodes
		{0, 10, 0, 1, 2, 200, 10, 2, 3, 9, 9, 3, 1, 4, 0, 0, 5, 3, 6, 4, 4, 2,
			7, 2, 1, 2, 3, 0, 4, 250, 128, 1, 5, 2, 6, 0, 64, 3, 2, 2, 2},
		// re-arm later, then earlier than the queued key — and than another
		// event, which it must then precede — then after the timer fired and
		// after it was stopped; steps in between
		{0, 0, 60, 1, 10, 1, 0, 100, 1, 9, 0, 0, 200, 1, 9, 0, 0, 50, 1, 9, 0, 0, 10, 1, 6, 1, 0, 1,
			9, 0, 0, 30, 1, 4, 0, 1, 9, 0, 0, 20, 1, 5, 1, 5, 1},
		// re-arm a timer due at the current instant, among same-instant
		// events: the re-keyed event must fire after the events already due
		// then, and before those scheduled after the re-arm
		{10, 2, 0, 0, 1, 0, 0, 0, 1, 9, 0, 0, 0, 1, 0, 0, 0, 1, 9, 0, 0, 0, 1, 5, 1, 5, 1, 5, 1},
		// unicasts and fan-outs racing timers of owners that crash and
		// recover between arming and firing
		{10, 1, 0, 40, 1, 10, 2, 0, 80, 1, 11, 1, 1, 8, 0, 60, 2, 1, 7, 2, 1, 0, 1, 6, 0, 50, 1,
			11, 1, 1, 9, 0, 0, 90, 1, 11, 2, 1, 9, 1, 0, 10, 1, 6, 1, 0, 1},
		// many re-arms of one far timer while near work drains: the stale
		// key surfaces once, long after the first re-arm
		{2, 255, 255, 1, 9, 0, 255, 0, 1, 0, 0, 9, 1, 6, 0, 64, 1, 9, 0, 255, 255, 1,
			6, 0, 64, 1, 9, 0, 128, 0, 1, 3, 0, 1, 2, 1, 5, 1, 9, 0, 0, 5, 1},
		// eight RunUntils to 524 280 µs, then timers keyed 1 µs apart around
		// 528 482 µs; RunUntil stops exactly on one of them, then re-arms
		// move a timer across it both ways
		{6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6,
			255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 2, 125, 8, 1, 0, 0, 8, 1, 10, 0, 0, 7, 1,
			10, 1, 16, 106, 1, 10, 2, 16, 107, 1, 6, 0, 8, 1, 9, 3, 16, 98, 1, 9, 2, 16, 99, 1, 5,
			1, 5, 1, 5, 1, 6, 255, 255, 1},
		// RunUntil stopping between events (6000 µs), then a timer keyed
		// just after it, re-arms later and earlier, and RunUntil stopping
		// just short of the next timer and then past it
		{10, 0, 19, 136, 1, 10, 1, 27, 88, 1, 10, 2, 35, 40, 1, 0, 16, 98, 1, 0, 16, 99, 1, 6,
			23, 112, 1, 0, 3, 232, 1, 9, 1, 11, 184, 1, 9, 2, 9, 196, 1, 6, 9, 84, 1, 6, 0, 1, 1,
			5, 1, 5, 1, 5, 1, 6, 78, 32, 1},
		// re-arms about 4.3 s ahead of timers due within 12 ms, beside a
		// stopped timer and an untouched one due at the same time
		{10, 0, 39, 16, 1, 10, 0, 42, 248, 1, 0, 41, 4, 1, 10, 1, 46, 224, 1, 93, 0, 131, 97,
			1, 93, 1, 132, 208, 1, 9, 2, 0, 40, 1, 6, 46, 224, 1, 5, 1, 0, 0, 100, 1, 5, 1, 5, 1,
			5, 1, 5, 1},
		// timers 4.4 s ahead, from a callback and from a re-arm at the heap's
		// root; once the clock has moved on 0.53 s, timers keyed just before
		// and after them
		{3, 17, 48, 0, 1, 10, 0, 3, 232, 1, 93, 0, 134, 71, 1, 6, 7, 208, 1, 6, 255, 255, 1, 6,
			255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255,
			255, 1, 6, 255, 255, 1, 3, 15, 34, 0, 1, 10, 1, 0, 3, 1, 93, 1, 118, 55, 1, 5, 1, 5,
			1, 5, 1, 5, 1, 5, 1, 5, 1},
		// a queue that empties, an idle gap of 1024 s, and a queue filled
		// afresh: new timers and re-arms
		{10, 0, 19, 136, 1, 10, 1, 35, 40, 1, 0, 78, 32, 1, 9, 0, 117, 48, 1, 6, 255, 255, 1,
			3, 3, 232, 10, 1, 5, 1, 10, 2, 19, 136, 1, 9, 0, 0, 100, 1, 93, 1, 128, 232, 1, 6,
			255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 10, 3, 35, 40, 1, 5, 1, 5, 1, 5, 1},
		// timers — one re-armed, one stopped, one re-armed 4.3 s on — for a
		// checkpoint: the fork seeds cut this script in the middle, after
		// the first half arms them and before the second fires them
		{10, 0, 19, 136, 1, 10, 1, 35, 40, 1, 10, 2, 50, 200, 1, 10, 3, 117, 48, 1, 0, 66, 104,
			1, 9, 0, 78, 32, 1, 4, 2, 1, 93, 3, 131, 97, 1, 9, 1, 35, 40, 1, 6, 50, 200, 1, 10, 1,
			31, 64, 1, 10, 2, 46, 224, 1, 0, 11, 184, 1, 6, 255, 255, 1, 5, 1, 5, 1, 5, 1, 5, 1,
			5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1},
		// two slots of one table and a message due at one instant, the message's
		// sequence number between the slots'; a third slot, set last and due
		// earlier, fires first, so the table's event is re-keyed to the first of
		// the tied slots after the message was sent (table_slots_tie_a_message)
		{12, 0, 0, 0, 100, 1, 8, 0, 100, 1, 1, 12, 0, 1, 0, 100, 1, 12, 0, 2, 0, 50, 1, 6, 0,
			200, 1, 5, 1},
		// a Set below the key the table's event is queued under: deeper in the
		// heap, where the event is abandoned for a new one, with a timer between
		// the two keys; then at the heap's root, where it is re-keyed in place,
		// again with a timer between (table_set_below_queued_key)
		{12, 0, 0, 1, 244, 1, 0, 0, 100, 1, 0, 1, 44, 1, 12, 0, 1, 0, 200, 1, 6, 2, 88, 1, 12,
			1, 1, 1, 44, 1, 12, 1, 2, 0, 100, 1, 0, 0, 150, 1, 6, 1, 244, 1, 5, 1},
		// Clear of the least slot, and of the next least once the clock has
		// moved (table_clear_least_slot)
		{12, 0, 0, 0, 100, 1, 12, 0, 1, 0, 200, 1, 12, 0, 2, 0, 150, 1, 13, 0, 0, 1, 6, 0, 120,
			1, 13, 0, 2, 1, 6, 1, 44, 1, 5, 1},
		// a slot that expires while its table's owner is down: suppressed but
		// counted; beside it a slot of another owner's table due at the same
		// instant, and a Set after the recovery (table_expiry_owner_down)
		{12, 0, 0, 0, 100, 1, 12, 1, 1, 0, 100, 1, 11, 1, 1, 6, 0, 200, 1, 11, 1, 1, 12, 0, 2,
			0, 50, 1, 5, 1, 5, 1},
		// Sets by a crashed owner, which draw nothing and leave the slots clear,
		// among a message to it; a Set after the recovery
		// (table_set_by_crashed_owner)
		{11, 2, 1, 12, 1, 0, 0, 100, 1, 12, 1, 3, 0, 50, 1, 8, 0, 100, 2, 1, 11, 2, 1, 6, 0,
			200, 1, 12, 1, 1, 0, 10, 1, 5, 1, 5, 1},
		// the callbacks of both tables' last slots, due at one instant with a
		// timer, each set its own table's first slot again
		// (table_callback_sets_own_table)
		{12, 0, 3, 0, 100, 1, 12, 1, 3, 0, 100, 1, 0, 0, 100, 1, 6, 0, 200, 1, 5, 1, 5, 1},
		// tables with slots set, one pushed back and waiting to be re-keyed, for
		// a checkpoint: the fork seeds cut this script in the middle, before
		// Sets below the queued key, a Clear and the expiries
		// (table_snapshot_restore_pending)
		{12, 0, 0, 0, 100, 1, 12, 0, 1, 0, 200, 1, 12, 1, 2, 0, 150, 1, 12, 0, 0, 1, 44, 1, 0,
			0, 120, 1, 12, 0, 2, 0, 50, 1, 13, 1, 2, 1, 6, 0, 250, 1, 12, 1, 0, 0, 10, 1, 5, 1, 5,
			1},
		// Sets below the run's tail, which go to the side heap and fire before
		// the run's slots; then one past the tail, which joins the run
		// (table_set_below_run_tail)
		{12, 0, 0, 0, 200, 1, 12, 0, 1, 0, 100, 1, 12, 0, 2, 0, 150, 1, 12, 0, 3, 0, 250, 1, 6,
			0, 180, 1, 5, 1, 5, 1},
		// a slot that moves from the side heap back to the run; once the
		// clock has moved, a slot set into the side heap below the key the
		// table's event was re-keyed to (table_side_heap_back_to_run)
		{12, 0, 0, 0, 100, 1, 12, 0, 1, 0, 50, 1, 12, 0, 1, 0, 200, 1, 12, 0, 2, 0, 150, 1, 6,
			0, 120, 1, 12, 0, 0, 0, 10, 1, 5, 1, 5, 1, 5, 1},
		// a Clear of the run's head, the least slot, while the side heap's root
		// is next: the table's event, queued under the cleared key, is re-keyed
		// to the side heap's root when it surfaces, after a timer due between
		// the two (table_clear_run_head_side_next)
		{12, 0, 0, 0, 100, 1, 12, 0, 1, 0, 200, 1, 12, 0, 2, 0, 150, 1, 13, 0, 0, 1, 0, 0, 140,
			1, 6, 0, 160, 1, 5, 1, 5, 1},
		// both tables with slots in the run, the highest linked slot among
		// them, and in the side heap, for a checkpoint: the fork seeds cut this
		// script in the middle, before Sets into both parts, a Clear of the
		// run's head and the expiries (table_run_and_side_checkpoint)
		{12, 0, 0, 0, 100, 1, 12, 0, 3, 0, 200, 1, 12, 0, 1, 0, 150, 1, 12, 1, 2, 0, 80, 1, 12,
			1, 0, 0, 40, 1, 5, 1, 12, 0, 2, 0, 120, 1, 12, 0, 1, 0, 250, 1, 13, 0, 0, 1, 6, 0, 210,
			1, 12, 1, 2, 0, 5, 1, 5, 1, 5, 1, 5, 1},
	}
}

// TestQueueDifferential replays the seed corpus plus quick-generated random
// scripts without needing -fuzz, so `go test` alone exercises the kernel
// differential harness on every run.
func TestQueueDifferential(t *testing.T) {
	for i, seed := range queueScriptSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			if d := scriptDivergence(seed); d != "" {
				t.Fatal(d)
			}
		})
	}
	f := func(data []byte) bool { return scriptDivergence(data) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
