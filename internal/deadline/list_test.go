package deadline

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// violation returns the first inconsistency of l, or "": links past the
// list's slots; a list out of key order, with a broken back link or an end
// that is not one, or reaching a slot whose state marks it clear; or a slot
// marked set that the list does not reach, or one in no state.
func violation(l *List) string {
	if len(l.links) > int(l.n) {
		return fmt.Sprintf("%d links for %d slots", len(l.links), l.n)
	}
	listed, prev := 0, None
	for slot := l.head; slot != None; slot = l.links[slot].next {
		switch {
		case slot < 0 || int(slot) >= len(l.links):
			return fmt.Sprintf("the list reaches slot %d, past its %d links", slot, len(l.links))
		case listed > len(l.links):
			return "the list loops"
		case !isSet(l, slot):
			return fmt.Sprintf("slot %d is in the list but its state is next=%d", slot, l.links[slot].next)
		case l.links[slot].prev != prev:
			return fmt.Sprintf("slot %d links back to %d, not %d", slot, l.links[slot].prev, prev)
		}
		if prev != None {
			a, b := l.links[prev], l.links[slot]
			if a.at > b.at || a.at == b.at && a.seq >= b.seq {
				return fmt.Sprintf("the list holds slot %d (%v, %d) after slot %d (%v, %d)", slot, b.at, b.seq, prev, a.at, a.seq)
			}
		}
		listed++
		prev = slot
	}
	if l.tail != prev {
		return fmt.Sprintf("the list ends at slot %d, its tail is %d", prev, l.tail)
	}
	set := 0
	for slot, k := range l.links {
		if k.next < unset {
			return fmt.Sprintf("slot %d is in no state: next=%d", slot, k.next)
		}
		if k.next != unset {
			set++
		}
	}
	if set != listed {
		return fmt.Sprintf("%d slots marked set, the list holds %d", set, listed)
	}
	return ""
}

// isSet reports whether slot is set.
func isSet(l *List, slot int32) bool {
	return int(slot) < len(l.links) && l.links[slot].next != unset
}

// key is one set slot of the model: a slice kept sorted by (at, seq).
type key struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// order walks l from its head.
func order(l *List) []key {
	var out []key
	for slot := l.head; slot != None && len(out) <= len(l.links); slot = l.links[slot].next {
		at, seq := l.Key(slot)
		out = append(out, key{at, seq, slot})
	}
	return out
}

// set is how the simulator's tables set a slot: take it, then link it at
// the tail if it belongs there and with Link otherwise.
func set(l *List, slot int32, at time.Duration, seq uint64) (walked int, atTail bool) {
	l.Take(slot)
	if l.LinkAtTail(slot, at, seq) {
		return 0, true
	}
	return l.Link(slot, at, seq), false
}

// runListScript plays data against a List and the sorted-slice model: each
// op byte picks a Set (with a time in a small range, so that ties are
// common), taking the head, or going on with a Copy, with the op's slot
// taken, while the original is emptied. After every op the list's
// structure, its order, its ends, which slots are set, and each Set's walk
// and LinkAtTail report must match the model's.
func runListScript(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	n := int32(data[0]%64) + 1
	l := NewList(int(n))
	var model []key
	var seq uint64
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		slot := int32(arg) % n
		model = slices.DeleteFunc(model, func(k key) bool { return op%4 != 2 && k.slot == slot })
		switch op % 4 {
		case 0, 1:
			at := time.Duration(op/4) % 16
			pos, later := 0, 0
			for pos < len(model) && model[pos].at <= at {
				pos++
			}
			if len(model) > 0 && at >= model[0].at {
				later = len(model) - pos
			}
			wantTail := len(model) > 0 && pos == len(model) && int(slot) < len(l.links)
			walked, atTail := set(&l, slot, at, seq)
			if walked != later || atTail != wantTail {
				t.Fatalf("op %d: Set(%d, %v) walked %d, at the tail at once %v; want %d, %v", i, slot, at, walked, atTail, later, wantTail)
			}
			model = slices.Insert(model, pos, key{at, seq, slot})
			seq++
		case 2:
			head := l.Head()
			if len(model) > 0 {
				model = model[1:]
			}
			if l.Take(head) != (head != None) {
				t.Fatalf("op %d: Take of the head %d reported otherwise", i, head)
			}
		case 3:
			var c List
			c.Copy(&l)
			for l.Take(l.Head()) {
			}
			if v := violation(&l); v != "" || l.Head() != None {
				t.Fatalf("op %d: emptying the original: %s (head %d)", i, v, l.Head())
			}
			l = c
			l.Take(slot)
		}
		if v := violation(&l); v != "" {
			t.Fatalf("op %d: %s", i, v)
		}
		if got := order(&l); !slices.Equal(got, model) {
			t.Fatalf("op %d: the list holds %v, want %v", i, got, model)
		}
		head, tail := None, None
		if len(model) > 0 {
			head, tail = model[0].slot, model[len(model)-1].slot
		}
		if l.Head() != head || l.tail != tail {
			t.Fatalf("op %d: head %d and tail %d, want %d and %d", i, l.Head(), l.tail, head, tail)
		}
		for s := int32(0); s < n; s++ {
			if want := slices.ContainsFunc(model, func(k key) bool { return k.slot == s }); isSet(&l, s) != want {
				t.Fatalf("op %d: slot %d set: %v, want %v", i, s, !want, want)
			}
		}
	}
}

// FuzzListMatchesSorted holds the list to a slice kept sorted by (at, seq)
// through random scripts of Sets (at the tail, at the head, after a walk,
// tied in time), expiries of the head, copies and Takes.
func FuzzListMatchesSorted(f *testing.F) {
	f.Add([]byte{8, 0, 0, 4, 1, 8, 2, 2, 0, 0, 1})
	f.Add([]byte{63, 60, 5, 0, 6, 60, 7, 4, 8, 3, 5, 8, 6, 2, 0, 2, 0})
	f.Add([]byte{3, 4, 0, 4, 1, 4, 2, 0, 0, 8, 1, 3, 2, 1, 0})
	f.Fuzz(runListScript)
}

// TestListPushBack: a slot set, then pushed back past every other, links at
// the tail at once, and a key below the head links at the head at once,
// neither walking past anything; a key between walks back from the tail.
func TestListPushBack(t *testing.T) {
	l := NewList(8)
	for slot := int32(0); slot < 4; slot++ {
		if walked, _ := set(&l, slot, time.Duration(slot+1), uint64(slot)); walked != 0 {
			t.Fatalf("slot %d walked %d", slot, walked)
		}
	}
	if walked, atTail := set(&l, 0, 10, 4); walked != 0 || !atTail {
		t.Errorf("the push-back of the head walked %d, at the tail at once %v", walked, atTail)
	}
	if walked, _ := set(&l, 5, 0, 5); walked != 0 || l.Head() != 5 {
		t.Errorf("a key below the head walked %d, head %d", walked, l.Head())
	}
	if walked, _ := set(&l, 6, 3, 6); walked != 2 {
		t.Errorf("a key between walked %d, want 2 (slots 0 and 3)", walked)
	}
	want := []key{{0, 5, 5}, {2, 1, 1}, {3, 2, 2}, {3, 6, 6}, {4, 3, 3}, {10, 4, 0}}
	if got := order(&l); !slices.Equal(got, want) {
		t.Errorf("the list holds %v, want %v", got, want)
	}
	if v := violation(&l); v != "" {
		t.Error(v)
	}
}

// TestListGrowsToHighestSlot: a list keeps links only as far as its highest
// slot ever set, grows them at twice what they held, never past its n slots,
// and a push-back allocates nothing.
func TestListGrowsToHighestSlot(t *testing.T) {
	l := NewList(100)
	if isSet(&l, 99) || len(l.links) != 0 {
		t.Fatalf("a new list holds %d links", len(l.links))
	}
	l.Link(3, 1, 0)
	l.Link(40, 2, 1)
	if len(l.links) != 41 || cap(l.links) != 41 {
		t.Errorf("after slot 40: %d links, capacity %d, want 41 and 41", len(l.links), cap(l.links))
	}
	l.Link(41, 3, 2)
	if len(l.links) != 42 || cap(l.links) != 82 {
		t.Errorf("after slot 41: %d links, capacity %d, want 42 and 82", len(l.links), cap(l.links))
	}
	l.Link(90, 4, 3)
	if cap(l.links) != 100 {
		t.Errorf("after slot 90: capacity %d, want the 100 slots", cap(l.links))
	}
	seq := uint64(4)
	pushBack := func() {
		set(&l, l.Head(), time.Duration(seq), seq)
		seq++
	}
	if allocs := testing.AllocsPerRun(100, pushBack); allocs != 0 {
		t.Errorf("a push-back: %v allocations, want 0", allocs)
	}
	if v := violation(&l); v != "" {
		t.Error(v)
	}
}

// TestListCopyIsIndependent: a Copy reuses its own storage and shares none
// with its source.
func TestListCopyIsIndependent(t *testing.T) {
	src := NewList(4)
	src.Link(0, 5, 0)
	src.Link(2, 3, 1)
	dst := NewList(4)
	dst.Link(3, 1, 0)
	storage := &dst.links[0]
	dst.Copy(&src)
	if &dst.links[0] != storage {
		t.Error("Copy did not reuse the destination's storage")
	}
	dst.Take(0)
	dst.Link(1, 9, 2)
	if got, want := order(&src), []key{{3, 1, 2}, {5, 0, 0}}; !slices.Equal(got, want) {
		t.Errorf("the source holds %v after its copy changed, want %v", got, want)
	}
	if got, want := order(&dst), []key{{3, 1, 2}, {9, 2, 1}}; !slices.Equal(got, want) {
		t.Errorf("the copy holds %v, want %v", got, want)
	}
	for _, l := range []*List{&src, &dst} {
		if v := violation(l); v != "" {
			t.Error(v)
		}
	}
}
