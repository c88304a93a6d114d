package des

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"asyncfd/internal/ident"
)

// fuzz_test.go is the kernel-level differential harness: a byte-coded script
// drives an identical workload of After/At/AfterOwned/Stop/Reset/Send/
// Fanout/Step/RunUntil calls against the kernel and against the reference
// model (model_test.go) and asserts the two are observationally identical —
// same fire order, same Now()/Steps() at every checkpoint, at which the
// kernel's slab, timer wheel and heap must also be consistent.
// The same scripts hold Timer.Reset to its contract: a kernel whose timers
// are re-armed in place executes the same (time, callback) sequence as one
// whose timers are stopped and armed anew. The committed seed corpus
// (testdata/fuzz/FuzzQueueEquivalence) covers the regression-prone shapes:
// same-instant ties, stopped-head reaping, far-horizon timers, fan-outs,
// re-arms of fired, stopped, due-now and earlier-moving timers, and the
// wheel's edges — slot boundaries, RunUntil mid-slot, a re-arm into the
// bucket being drained, timers beyond the span, an idle gap. CI runs the
// target with a short -fuzztime budget on every push.

// scriptTimer is a timer a script may later stop or re-arm: the handle and
// what it was armed with.
type scriptTimer struct {
	tm    timer
	owner ident.ID
	fn    func()
}

// scriptHarness interprets op scripts against one scheduler. Its own state
// (timers, eventID, the sink's down set) can be checkpointed and rolled back
// alongside the kernel: see fork_fuzz_test.go.
type scriptHarness struct {
	s    sched
	sink *testSink
	out  *[]string // swappable so a replay records into a fresh trace
	// stopAfter makes the re-arm op the reference it is checked against:
	// Stop and After where the harness would otherwise try Reset first. The
	// two leave different numbers of stopped events to reclaim, so traces
	// compared across this flag leave Pending() out (withoutPending).
	stopAfter bool
	timers    []scriptTimer
	eventID   int
}

// newScriptHarness returns a harness on the scheduler build makes (onKernel
// or onModel).
func newScriptHarness(build func(*testSink) sched, out *[]string) *scriptHarness {
	sink := &testSink{}
	return &scriptHarness{s: build(sink), sink: sink, out: out}
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
const scriptOps = 12

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
		case 9: // re-arm a timer the way a detector does: whatever state the
			// timer is in (pending, due now, fired, stopped) and whichever
			// way the new time lies, the callback next runs d from now. An op
			// byte of 9 + 12k doubles d k times: from k = 7 a re-arm can
			// reach a whole wheel rotation ahead, or beyond the span.
			if len(h.timers) > 0 {
				t := &h.timers[int(next())%len(h.timers)]
				d := next16() * time.Microsecond << (op / scriptOps)
				if h.stopAfter || !t.tm.Reset(d) {
					t.tm.Stop()
					t.tm = s.after(d, t.owner, t.fn)
				}
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
func runScript(build func(*testSink) sched, data []byte, stopAfter bool) []string {
	var out []string
	h := newScriptHarness(build, &out)
	h.stopAfter = stopAfter
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

// scriptDivergence runs data every way the harness compares and returns the
// first difference found, or "": the kernel against the model, and on the
// kernel re-arming in place against Stop + After. Pending() is left out of
// both: the kernel counts stopped events until it reclaims them.
func scriptDivergence(data []byte) string {
	kernel := withoutPending(runScript(onKernel, data, false))
	if d := firstDivergence(kernel, withoutPending(runScript(onModel, data, false))); d != "" {
		return "kernel vs model diverged at " + d
	}
	if d := firstDivergence(kernel, withoutPending(runScript(onKernel, data, true))); d != "" {
		return "Reset vs Stop+After diverged at " + d
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
// against the kernel, re-arming in place and by Stop + After, and against the
// reference model, and asserts identical observable behavior. Seeds mirror
// the committed corpus.
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
		// The timer wheel's edges. A slot is 4194.304 µs, so the first slot
		// boundary a script reaches in whole µs is slot 125's, at 524 288 µs:
		// eight RunUntils to 524 280 µs, then timers keyed 1 µs before, on,
		// and either side of slot 126's start; RunUntil stops exactly on the
		// boundary, then re-arms move a timer across slot 126's start both
		// ways
		{6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6,
			255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 2, 125, 8, 1, 0, 0, 8, 1, 10, 0, 0, 7, 1,
			10, 1, 16, 106, 1, 10, 2, 16, 107, 1, 6, 0, 8, 1, 9, 3, 16, 98, 1, 9, 2, 16, 99, 1, 5,
			1, 5, 1, 5, 1, 6, 255, 255, 1},
		// RunUntil stopping mid-slot (6000 µs, in slot 1), then a timer keyed
		// in that drained slot, a heap timer re-armed into the next slot, a
		// refused re-arm in it, and RunUntil stopping just short of the next
		// slot's start and then past it
		{10, 0, 19, 136, 1, 10, 1, 27, 88, 1, 10, 2, 35, 40, 1, 0, 16, 98, 1, 0, 16, 99, 1, 6,
			23, 112, 1, 0, 3, 232, 1, 9, 1, 11, 184, 1, 9, 2, 9, 196, 1, 6, 9, 84, 1, 6, 0, 1, 1,
			5, 1, 5, 1, 5, 1, 6, 78, 32, 1},
		// a re-arm whose new key (4 305 024 µs, slot 1026) lands in the same
		// bucket one rotation later than the one it waits in (slot 2), applied
		// while that bucket drains; beside it a re-arm beyond the span, a
		// stopped timer and an untouched one in the same bucket
		{10, 0, 39, 16, 1, 10, 0, 42, 248, 1, 0, 41, 4, 1, 10, 1, 46, 224, 1, 93, 0, 131, 97,
			1, 93, 1, 132, 208, 1, 9, 2, 0, 40, 1, 6, 46, 224, 1, 5, 1, 0, 0, 100, 1, 5, 1, 5, 1,
			5, 1, 5, 1},
		// timers beyond the span (4.4 s, from a callback and from a re-arm at
		// the heap's root) that come into range: once the clock has moved on
		// 0.53 s, timers keyed just before and after them wait in the wheel
		{3, 17, 48, 0, 1, 10, 0, 3, 232, 1, 93, 0, 134, 71, 1, 6, 7, 208, 1, 6, 255, 255, 1, 6,
			255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 6, 255,
			255, 1, 6, 255, 255, 1, 3, 15, 34, 0, 1, 10, 1, 0, 3, 1, 93, 1, 118, 55, 1, 5, 1, 5,
			1, 5, 1, 5, 1, 5, 1, 5, 1},
		// a wheel that empties, an idle gap of 1024 s, and a wheel filled
		// afresh: new timers and re-arms, refused and a rotation on
		{10, 0, 19, 136, 1, 10, 1, 35, 40, 1, 0, 78, 32, 1, 9, 0, 117, 48, 1, 6, 255, 255, 1,
			3, 3, 232, 10, 1, 5, 1, 10, 2, 19, 136, 1, 9, 0, 0, 100, 1, 93, 1, 128, 232, 1, 6,
			255, 255, 1, 6, 255, 255, 1, 6, 255, 255, 1, 10, 3, 35, 40, 1, 5, 1, 5, 1, 5, 1},
		// timers in buckets — one re-armed, one stopped, one re-armed a
		// rotation on — for a checkpoint: the fork seeds cut this script in
		// the middle, after the first half arms them and before the second
		// drains their slots
		{10, 0, 19, 136, 1, 10, 1, 35, 40, 1, 10, 2, 50, 200, 1, 10, 3, 117, 48, 1, 0, 66, 104,
			1, 9, 0, 78, 32, 1, 4, 2, 1, 93, 3, 131, 97, 1, 9, 1, 35, 40, 1, 6, 50, 200, 1, 10, 1,
			31, 64, 1, 10, 2, 46, 224, 1, 0, 11, 184, 1, 6, 255, 255, 1, 5, 1, 5, 1, 5, 1, 5, 1,
			5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1},
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
