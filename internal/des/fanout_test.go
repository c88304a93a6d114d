package des

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
)

// testSink is the Sink of the kernel's own tests. A message's payload is a
// func(to ident.ID) that the sink runs at delivery, so a test tells
// deliveries apart the way it tells timer callbacks apart: by closure. down
// are the timer owners that are not alive.
type testSink struct{ down ident.Set }

func (k *testSink) Deliver(_, to ident.ID, payload any) { payload.(func(ident.ID))(to) }

func (k *testSink) Alive(owner ident.ID) bool { return !k.down.Has(owner) }

// newSunk returns a simulator with a testSink registered.
func newSunk(seed int64) (*Simulator, *testSink) {
	s, k := New(seed), &testSink{}
	s.SetSink(k)
	return s, k
}

// receivers builds a Fanout argument from delays: receiver k is process k.
func receivers(delays ...time.Duration) []Receiver {
	recv := make([]Receiver, len(delays))
	for k, d := range delays {
		recv[k] = Receiver{D: d, To: ident.ID(k)}
	}
	return recv
}

// fanScript interprets a byte script against one simulator and records
// everything observable about the run. A broadcast is issued as one Fanout,
// or — split — as one Send per receiver in slice order, which is the
// definition Fanout is held to: the two must record the same trace.
type fanScript struct {
	s     *Simulator
	split bool
	out   []string
	// id numbers payloads and timers; nested counts broadcasts issued from
	// inside deliveries. Both roll back with a Restore.
	id, nested int
}

// fanScriptMaxIDs bounds the payloads and timers one script may create, and
// fanScriptMaxNested the broadcasts deliveries may issue, so that a 300-wide
// script still runs in milliseconds.
const (
	fanScriptMaxIDs    = 256
	fanScriptMaxNested = 32
)

func (h *fanScript) mark() {
	h.out = append(h.out, fmt.Sprintf("%d/%d/%d", h.s.Now(), h.s.Steps(), h.s.Pending()))
}

// broadcast sends a fresh payload to recv. A third of the payloads, when
// delivered to process 0, broadcast again: the fan-out is issued from inside
// a delivery, possibly of another fan-out's same-instant burst.
func (h *fanScript) broadcast(recv []Receiver) {
	id := h.id
	h.id++
	payload := func(to ident.ID) {
		h.out = append(h.out, fmt.Sprintf("b%d>%d@%d", id, to, h.s.Now()))
		if to == 0 && id%3 == 0 && h.nested < fanScriptMaxNested {
			h.nested++
			x := mix64(uint64(id))
			h.broadcast(fanReceivers(2+int(x%299), byte(x>>16), byte(x>>24)))
		}
	}
	if !h.split {
		h.s.Fanout(9, payload, recv)
		return
	}
	for _, r := range recv {
		h.s.Send(r.D, 9, r.To, payload)
	}
}

// mix64 is the splitmix64 finalizer: the scripts' source of per-receiver
// delays, so one script byte can stand for 300 of them.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fanReceivers builds a broadcast of the given width whose delays, drawn
// from seed, take one of the shapes the sort's buckets treat differently.
func fanReceivers(width int, mode, seed byte) []Receiver {
	recv := make([]Receiver, width)
	for j := range recv {
		x := mix64(uint64(seed)<<32 | uint64(j))
		var d time.Duration
		switch mode % 8 {
		case 0: // all tied
			d = time.Duration(seed%4) * time.Millisecond
		case 1: // all due now
		case 2: // negative delays, clamped to now, among small positive ones
			d = time.Duration(int64(x%5)-2) * 100 * time.Microsecond
		case 3: // continuous, as under an exponential delay model
			d = 500*time.Microsecond + time.Duration(x%(4<<20))
		case 4: // a few distinct values: ties inside a spread
			d = time.Duration(x%4) * 250 * time.Microsecond
		case 5: // far delays: some past 2⁴⁷ ns, and the largest Duration,
			// which overflows the clock once it has left 0
			d = time.Duration(x % (1 << 20))
			if j%7 == 3 {
				d = 1<<47 + time.Duration(x%1000)
			}
			if j == width-1 {
				d = time.Duration(math.MaxInt64)
			}
		case 6: // one delivery an hour past the rest, which all share bucket 0
			d = 500*time.Microsecond + time.Duration(x%(4<<20))
			if j == int(seed)%width {
				d += time.Hour
			}
		case 7: // the earliest and the latest instant only: the bottom and the
			// top bucket, each holding ties
			d = time.Duration(x%2) * time.Millisecond
		}
		recv[j] = Receiver{D: d, To: ident.ID(j)}
	}
	return recv
}

// fanScriptOps is the size of the op alphabet.
const fanScriptOps = 6

// runFanScript runs data as an op stream and returns the trace, or the
// first way a Restore failed to replay what it rolled back.
func runFanScript(data []byte, split bool) ([]string, string) {
	h := &fanScript{split: split}
	h.s, _ = newSunk(1)
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
	next16 := func() int { return int(next())<<8 | int(next()) }
	for pos < len(data) && h.id < fanScriptMaxIDs {
		switch next() % fanScriptOps {
		case 0: // broadcast, 2 to 300 receivers
			width := 2 + next16()%299
			h.broadcast(fanReceivers(width, next(), next()))
		case 1: // a timer among the deliveries
			id := h.id
			h.id++
			s.After(time.Duration(next16())*time.Microsecond, func() {
				h.out = append(h.out, fmt.Sprintf("t%d@%d", id, s.Now()))
			})
		case 2: // a unicast, which goes through the heap either way
			h.broadcast([]Receiver{{D: time.Duration(next16()) * time.Microsecond, To: ident.ID(next() % 4)}})
		case 3:
			s.Step()
			h.mark()
		case 4:
			s.RunUntil(s.Now() + time.Duration(next16())*time.Microsecond)
			h.mark()
		case 5: // checkpoint mid-drain, run on, roll back, run the same again
			until := s.Now() + time.Duration(next16())*time.Microsecond
			snap, id, nested, cut := s.Snapshot(), h.id, h.nested, len(h.out)
			s.RunUntil(until)
			h.mark()
			first := append([]string(nil), h.out[cut:]...)
			h.out, h.id, h.nested = h.out[:cut], id, nested
			s.Restore(snap)
			s.RunUntil(until)
			h.mark()
			if d := firstDivergence(h.out[cut:], first); d != "" {
				return h.out, "replay after Restore diverged at " + d
			}
		}
	}
	h.mark()
	for i := 0; i < 1_000_000 && s.Step(); i++ {
	}
	h.mark()
	return h.out, ""
}

// fanDivergence runs data with broadcasts as Fanout and as Sends and returns
// the first difference, or "".
func fanDivergence(data []byte) string {
	fanned, d := runFanScript(data, false)
	if d != "" {
		return "Fanout: " + d
	}
	sent, d := runFanScript(data, true)
	if d != "" {
		return "Send: " + d
	}
	if d := firstDivergence(fanned, sent); d != "" {
		return "Fanout vs Send diverged at " + d
	}
	return ""
}

// FuzzFanoutMatchesSend holds a Fanout to the k Sends it stands for: the
// same deliveries in the same order at the same instants, interleaved the
// same way with timers and unicasts, and the same Now/Steps/Pending at every
// mark — across widths from 2 to 300; tied, zero, negative and far delays;
// ties inside a spread; a lone far delivery; broadcasts sent from inside
// deliveries; and checkpoints taken and restored mid-drain. Seeds mirror the
// committed corpus.
func FuzzFanoutMatchesSend(f *testing.F) {
	for _, seed := range fanScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		if d := fanDivergence(data); d != "" {
			t.Fatal(d)
		}
	})
}

// fanScriptSeeds are hand-built scripts, one per shape; they are also
// committed as the fuzz seed corpus under testdata/fuzz/FuzzFanoutMatchesSend.
func fanScriptSeeds() [][]byte {
	return [][]byte{
		// every delay shape at width 127, drained to the end
		{0, 0, 125, 0, 1, 0, 0, 125, 1, 2, 0, 0, 125, 2, 3, 0, 0, 125, 3, 4, 0, 0, 125, 4, 5, 0, 0, 125, 5, 6},
		// widths 4, 31, 63 and 64, and the widest script broadcast, 300
		{0, 0, 2, 3, 7, 0, 0, 29, 3, 8, 0, 0, 61, 3, 9, 0, 0, 62, 3, 10, 0, 1, 42, 3, 11, 4, 0, 40},
		// six narrow broadcasts on four shared instants: ties between nodes
		{0, 0, 4, 4, 1, 0, 0, 4, 4, 2, 0, 0, 4, 4, 3, 0, 0, 4, 4, 4, 0, 0, 4, 4, 5, 0, 0, 4, 4, 6},
		// overlapping broadcasts with timers and unicasts in between, stepped
		{0, 0, 30, 3, 1, 1, 1, 244, 2, 0, 200, 1, 0, 0, 40, 4, 2, 1, 3, 232, 3, 3, 3, 4, 3, 0, 4, 4, 7, 208},
		// same-instant bursts from inside deliveries, behind timers due now
		{1, 0, 0, 0, 0, 20, 1, 0, 1, 0, 0, 0, 3, 0, 0, 90, 0, 7, 3, 3, 4, 0, 10},
		// checkpoints mid-drain: before any delivery, between two, after all
		{0, 0, 125, 3, 12, 5, 0, 0, 4, 3, 232, 5, 3, 32, 0, 0, 60, 4, 13, 4, 1, 0, 5, 0, 200, 5, 255, 255},
		// far delays mid-run, then a checkpoint before they come due
		{0, 0, 125, 5, 14, 4, 7, 208, 0, 0, 9, 5, 15, 5, 39, 16, 4, 39, 16},
		// one delivery an hour out, so every other one shares bucket 0: at
		// widths 127, 31 and 2, before and after the clock moves
		{0, 0, 125, 6, 1, 0, 0, 29, 6, 2, 0, 0, 0, 6, 3, 4, 3, 232, 0, 0, 125, 6, 4, 0, 0, 29, 6, 5, 3, 3},
		// the latest delivery on the top bucket, ties at both ends: widths 2,
		// 3, 31, 127 and 300
		{0, 0, 0, 7, 1, 0, 0, 1, 7, 2, 0, 0, 29, 7, 3, 0, 0, 125, 7, 4, 0, 1, 42, 7, 5, 3, 4, 0, 10},
		// width 2, tied and untied, in every shape
		{0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 3, 0, 0, 0, 3, 4, 0, 0, 0, 4, 5, 0, 0, 0, 5, 6, 0, 0, 0, 6, 7, 0, 0, 0, 7, 8},
		// ties inside a spread: four instants over widths 5, 31, 127 and 300,
		// and negative delays tied at now among small positive ones
		{0, 0, 3, 4, 9, 0, 0, 29, 4, 10, 0, 0, 125, 4, 11, 0, 1, 42, 4, 12, 4, 0, 100, 0, 0, 125, 2, 13, 0, 0, 29, 2, 14},
		// delays past 2⁴⁷ ns and math.MaxInt64 at widths 2, 8, 31 and 127,
		// at 0 and once the clock has left it
		{0, 0, 0, 5, 1, 0, 0, 6, 5, 2, 0, 0, 29, 5, 3, 0, 0, 125, 5, 4, 4, 0, 50, 0, 0, 6, 5, 5, 0, 0, 125, 5, 6, 3, 3, 3},
	}
}

// TestFanoutMatchesSend replays quick-generated random scripts through the
// FuzzFanoutMatchesSend harness, so `go test` alone exercises more than the
// seed corpus on every run.
func TestFanoutMatchesSend(t *testing.T) {
	f := func(data []byte) bool { return fanDivergence(data) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFanoutOverflowingDelay pins the clamp Fanout shares with After: a
// delay that overflows the clock delivers at the current instant.
func TestFanoutOverflowingDelay(t *testing.T) {
	s, _ := newSunk(1)
	s.RunUntil(time.Hour)
	var got []ident.ID
	s.Fanout(0, func(to ident.ID) { got = append(got, to) },
		receivers(time.Millisecond, time.Duration(1<<63-1), 0))
	s.RunUntil(time.Hour)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered at the current instant: %v, want [1 2]", got)
	}
}

// TestAllocsFanout locks the broadcast path at zero allocations once the
// kernel's sort buffers, its item pool and its slab have grown: broadcasts 1,
// 2, 31 and 127 wide under continuous delays, one whose deliveries all tie
// and one with a lone far delivery (a bucket dealt twice), each sorted,
// queued and delivered.
func TestAllocsFanout(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	s := New(1)
	s.SetSink(&countingSink{})
	shapes := [][]Receiver{
		fanReceivers(1, 3, 6),
		fanReceivers(2, 3, 1),
		fanReceivers(31, 3, 2),
		fanReceivers(127, 3, 3),
		fanReceivers(127, 0, 4), // all tied
		fanReceivers(127, 6, 5), // one delivery an hour past the rest
	}
	var payload any = "q"
	round := func() {
		for _, recv := range shapes {
			s.Fanout(0, payload, recv)
		}
		s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a round of broadcasts: %v allocations, want 0", allocs)
	}
}

func TestFanoutSameInstantBurst(t *testing.T) {
	s, _ := newSunk(1)
	var got []int
	s.After(time.Millisecond, func() {
		s.Fanout(0, func(to ident.ID) { got = append(got, int(to)) }, receivers(make([]time.Duration, 10)...))
		// Scheduled after the fan-out: must run after every delivery.
		s.After(0, func() { got = append(got, 99) })
	})
	s.Run()
	if len(got) != 11 || got[10] != 99 {
		t.Fatalf("burst order = %v", got)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("burst order = %v, want FIFO then 99", got)
		}
	}
	if s.Now() != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", s.Now())
	}
}

func TestFanoutNestedScheduling(t *testing.T) {
	s, _ := newSunk(1)
	var got []string
	s.Fanout(0, func(to ident.ID) {
		got = append(got, []string{"a", "a2", "c"}[to])
		if to == 0 {
			s.After(0, func() { got = append(got, "b") })
		}
	}, receivers(time.Millisecond, time.Millisecond, 2*time.Millisecond))
	s.Run()
	want := []string{"a", "a2", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFanoutEmptyAndSingle(t *testing.T) {
	s, _ := newSunk(1)
	s.Fanout(0, nil, nil)
	ran := false
	s.Fanout(3, func(to ident.ID) { ran = to == 5 }, []Receiver{{D: time.Millisecond, To: 5}})
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if !ran {
		t.Error("single-receiver fan-out did not deliver to its receiver")
	}
}

func TestFanoutRunUntilBoundary(t *testing.T) {
	s, _ := newSunk(1)
	var got []ident.ID
	s.Fanout(0, func(to ident.ID) { got = append(got, to) }, receivers(time.Millisecond, 3*time.Millisecond))
	s.RunUntil(2 * time.Millisecond)
	if len(got) != 1 || s.Pending() != 1 {
		t.Fatalf("got %v pending %d, want only the 1ms delivery", got, s.Pending())
	}
	s.Run()
	if len(got) != 2 {
		t.Error("remaining fan-out item lost after RunUntil")
	}
}

// TestSendCarriesEndpoints checks the sink sees a message's own (from, to,
// payload), for unicast and fan-out alike.
func TestSendCarriesEndpoints(t *testing.T) {
	s := New(1)
	k := &recordingSink{}
	s.SetSink(k)
	s.Send(time.Millisecond, 1, 2, "u")
	s.Fanout(3, "b", []Receiver{{D: 2 * time.Millisecond, To: 4}, {D: 2 * time.Millisecond, To: 5}})
	s.Run()
	want := []delivery{{1, 2, "u"}, {3, 4, "b"}, {3, 5, "b"}}
	if len(k.got) != len(want) {
		t.Fatalf("delivered %v, want %v", k.got, want)
	}
	for i := range want {
		if k.got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", k.got, want)
		}
	}
}

type delivery struct {
	from, to ident.ID
	payload  any
}

type recordingSink struct{ got []delivery }

func (k *recordingSink) Deliver(from, to ident.ID, payload any) {
	k.got = append(k.got, delivery{from, to, payload})
}

func (k *recordingSink) Alive(ident.ID) bool { return true }

// TestOwnedTimer checks that the kernel asks the sink about a timer's owner
// when the timer comes due — not when it was armed — and that a suppressed
// callback still counts as a step.
func TestOwnedTimer(t *testing.T) {
	s, k := newSunk(1)
	var ran []int
	s.AfterOwned(time.Millisecond, 1, func() { ran = append(ran, 1) })
	s.AfterOwned(2*time.Millisecond, 2, func() { ran = append(ran, 2) })
	s.AfterOwned(3*time.Millisecond, 2, func() { ran = append(ran, 3) })
	k.down.Add(2)
	s.RunUntil(2 * time.Millisecond)
	k.down.Remove(2)
	s.Run()
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 3 {
		t.Errorf("ran %v, want [1 3]: owner 2 was down at 2ms only", ran)
	}
	if s.Steps() != 3 {
		t.Errorf("Steps = %d, want 3: a suppressed timer is a step", s.Steps())
	}
}

// TestSecondSinkPanics: events already queued would reach the wrong sink.
func TestSecondSinkPanics(t *testing.T) {
	s, _ := newSunk(1)
	defer func() {
		if recover() == nil {
			t.Error("registering a second sink did not panic")
		}
	}()
	s.SetSink(&testSink{})
}

// TestSlabRecycled checks that steady-state scheduling reuses slab slots
// instead of growing storage without bound.
func TestSlabRecycled(t *testing.T) {
	s := New(1)
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < 10; i++ {
			s.After(time.Duration(i)*time.Microsecond, func() {})
		}
		s.Run()
	}
	if len(s.events) > 64 {
		t.Errorf("slab grew to %d slots for a working set of 10", len(s.events))
	}
}

// TestStaleTimerAfterReuse checks that a Timer for a consumed event stays
// inert even after its slab slot has been recycled for a new event.
func TestStaleTimerAfterReuse(t *testing.T) {
	s := New(1)
	tm := s.After(0, func() {})
	s.Run()
	ran := false
	s.After(0, func() { ran = true }) // reuses the freed slot
	if tm.Stop() {
		t.Error("stale Timer.Stop = true")
	}
	s.Run()
	if !ran {
		t.Error("stale Stop cancelled an unrelated event in the reused slot")
	}
}
