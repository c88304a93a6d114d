package tagset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"asyncfd/internal/ident"
)

func TestZeroValueUsable(t *testing.T) {
	var tb Table
	if _, st := tb.Get(1); st != Absent || tb.String() != "suspected [] mistake []" {
		t.Fatal("zero Table not empty")
	}
	tb.Put(1, 5, Suspected)
	if tag, st := tb.Get(1); tag != 5 || st != Suspected {
		t.Fatalf("Get(1) = %d,%v; want 5,Suspected", tag, st)
	}
}

func TestAddReplaces(t *testing.T) {
	var tb Table
	tb.Put(3, 10, Suspected)
	// The paper's Add replaces unconditionally, even with an older tag, and
	// moving to the other set leaves the first.
	if prev := tb.Put(3, 4, Mistake); prev != Suspected {
		t.Errorf("Put returned %v, want the Suspected it replaced", prev)
	}
	if tag, st := tb.Get(3); tag != 4 || st != Mistake {
		t.Errorf("Put did not replace: %d,%v, want 4,Mistake", tag, st)
	}
	if susp, mist := tb.Entries(); len(susp) != 0 || len(mist) != 1 {
		t.Errorf("Entries = %v, %v; want one mistake", susp, mist)
	}
}

func TestAddInvalidIDNoop(t *testing.T) {
	var tb Table
	if prev := tb.Put(ident.Nil, 1, Suspected); prev != Absent {
		t.Errorf("Put(Nil) returned %v", prev)
	}
	if susp, mist := tb.Entries(); len(susp)+len(mist) != 0 {
		t.Error("Put(Nil) inserted an entry")
	}
}

// TestRemove: an id leaves a set only by moving to the other one, or to
// Absent, and Put reports the state it left.
func TestRemove(t *testing.T) {
	var tb Table
	tb.Put(1, 1, Suspected)
	if prev := tb.Put(1, 1, Mistake); prev != Suspected {
		t.Errorf("leaving suspected reported %v", prev)
	}
	if prev := tb.Put(1, 2, Mistake); prev != Mistake {
		t.Errorf("staying in mistake reported %v", prev)
	}
	if prev := tb.Put(1, 0, Absent); prev != Mistake {
		t.Errorf("leaving mistake reported %v", prev)
	}
	if susp, mist := tb.Entries(); len(susp)+len(mist) != 0 {
		t.Errorf("after removal: %v, %v", susp, mist)
	}
	var zero Table
	if prev := zero.Put(9, 1, Absent); prev != Absent {
		t.Errorf("Put on zero table = %v", prev)
	}
}

func TestEntriesSorted(t *testing.T) {
	var tb Table
	tb.Put(9, 1, Suspected)
	tb.Put(2, 7, Mistake)
	tb.Put(5, 3, Suspected)
	tb.Put(1, 4, Mistake)
	susp, mist := tb.Entries()
	if len(susp) != 2 || susp[0].ID != 5 || susp[1].ID != 9 || len(mist) != 2 || mist[0].ID != 1 || mist[1].ID != 2 {
		t.Errorf("Entries = %v, %v; want each sorted by id", susp, mist)
	}
}

func TestIDSet(t *testing.T) {
	var tb Table
	tb.Put(1, 1, Suspected)
	tb.Put(64, 2, Suspected)
	tb.Put(3, 2, Mistake)
	if bits := tb.IDs(Suspected); !bits.Has(1) || !bits.Has(64) || bits.Len() != 2 {
		t.Errorf("IDs(Suspected) = %v", bits)
	}
	if bits := tb.IDs(Mistake); !bits.Equal(ident.SetOf(3)) {
		t.Errorf("IDs(Mistake) = %v", bits)
	}
}

func TestCloneIndependence(t *testing.T) {
	var tb Table
	tb.Put(1, 1, Suspected)
	c := tb.Clone()
	c.Put(2, 2, Suspected)
	c.Put(1, 9, Mistake)
	if _, st := tb.Get(2); st != Absent {
		t.Error("Clone shares storage")
	}
	if tag, st := tb.Get(1); tag != 1 || st != Suspected {
		t.Error("Clone mutation leaked into original")
	}
	if susp, mist := tb.Entries(); len(susp) != 1 || len(mist) != 0 {
		t.Errorf("original's entries after the clone changed: %v, %v", susp, mist)
	}
}

func TestString(t *testing.T) {
	var tb Table
	tb.Put(10, 5, Suspected)
	tb.Put(2, 7, Suspected)
	tb.Put(4, 1, Mistake)
	if got := tb.String(); got != "suspected [⟨p2, 7⟩ ⟨p10, 5⟩] mistake [⟨p4, 1⟩]" {
		t.Errorf("String = %q", got)
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{ID: 3, Tag: 17}
	if got := e.String(); got != "⟨p3, 17⟩" {
		t.Errorf("Entry.String = %q", got)
	}
}

// --- Merge-guard semantics (Algorithm 1 lines 22 and 33) ---

// fresher and fresherOrEqual are the guards of lines 22 and 33 as
// internal/core's HandleQuery reads them off Compare.
func fresher(tb *Table, id ident.ID, incoming Tag) bool {
	return tb.Compare(Entry{ID: id, Tag: incoming}, Suspected) > 0
}

func fresherOrEqual(tb *Table, id ident.ID, incoming Tag) bool {
	return tb.Compare(Entry{ID: id, Tag: incoming}, Mistake) >= 0
}

// mergeSuspicion and mergeMistake are task T2's two steps as HandleQuery
// applies them: the guard, then Put.
func mergeSuspicion(tb *Table, e Entry) (entered bool) {
	if !InRange(e.ID) || !fresher(tb, e.ID, e.Tag) {
		return false
	}
	return tb.Put(e.ID, e.Tag, Suspected) != Suspected
}

func mergeMistake(tb *Table, e Entry) (adopted, cleared bool) {
	if !InRange(e.ID) || !fresherOrEqual(tb, e.ID, e.Tag) {
		return false, false
	}
	return true, tb.Put(e.ID, e.Tag, Mistake) == Suspected
}

func TestFresherUnknownID(t *testing.T) {
	var tb Table
	if !fresher(&tb, 4, 0) {
		t.Error("Fresher for unknown id = false; any info about an unknown id is fresh")
	}
	if !fresherOrEqual(&tb, 4, 0) {
		t.Error("FresherOrEqual for unknown id = false")
	}
}

func TestFresherStrict(t *testing.T) {
	var tb Table
	tb.Put(4, 10, Suspected)
	tests := []struct {
		incoming Tag
		want     bool
	}{
		{9, false},
		{10, false}, // suspicions do NOT win ties
		{11, true},
	}
	for _, tt := range tests {
		if got := fresher(&tb, 4, tt.incoming); got != tt.want {
			t.Errorf("Fresher(incoming=%d) = %v, want %v", tt.incoming, got, tt.want)
		}
	}
}

func TestFresherOrEqualTieGoesToMistake(t *testing.T) {
	var tb Table
	tb.Put(4, 10, Suspected)
	tests := []struct {
		incoming Tag
		want     bool
	}{
		{9, false},
		{10, true}, // a mistake wins the tie against a suspicion
		{11, true},
	}
	for _, tt := range tests {
		if got := fresherOrEqual(&tb, 4, tt.incoming); got != tt.want {
			t.Errorf("FresherOrEqual(incoming=%d) = %v, want %v", tt.incoming, got, tt.want)
		}
	}
}

func TestFresherAgainstMistakeSet(t *testing.T) {
	var tb Table
	tb.Put(4, 10, Mistake)
	if fresher(&tb, 4, 10) {
		t.Error("suspicion with equal tag beat an existing mistake")
	}
	if !fresher(&tb, 4, 11) {
		t.Error("strictly newer suspicion rejected")
	}
	if fresherOrEqual(&tb, 4, 9) {
		t.Error("older mistake accepted")
	}
	if !fresherOrEqual(&tb, 4, 10) {
		t.Error("equal mistake rejected (mistake should be re-appliable)")
	}
	if c := tb.Compare(Entry{ID: 4, Tag: 10}, Mistake); c != 0 {
		t.Errorf("Compare of the mistake held = %d, want 0: adopted (mobility's eviction reads it), nothing to store", c)
	}
}

// --- Property tests ---

// sameAsOracle reports the first observable difference between the table and
// the pair of map oracles, or "" when every read agrees: Get on each probe,
// and when whole is set the reads that walk the table too.
func sameAsOracle(tb *Table, oSusp, oMist *mapSet, probe []ident.ID, whole bool) string {
	if !whole {
		return sameProbes(tb, oSusp, oMist, probe)
	}
	susp, mist := tb.Entries()
	if cap(susp) != len(susp) || cap(mist) != len(mist) {
		return fmt.Sprintf("entry slices of %d and %d have capacity %d and %d: the message slices must be exact", len(susp), len(mist), cap(susp), cap(mist))
	}
	if want := oSusp.Entries(); !slices.Equal(susp, want) {
		return fmt.Sprintf("suspected entries = %v, oracle %v", susp, want)
	}
	if want := oMist.Entries(); !slices.Equal(mist, want) {
		return fmt.Sprintf("mistake entries = %v, oracle %v", mist, want)
	}
	if got, want := tb.IDs(Suspected), oSusp.IDSet(); !got.Equal(want) {
		return fmt.Sprintf("IDs(Suspected) = %v, oracle %v", got, want)
	}
	if got, want := tb.IDs(Mistake), oMist.IDSet(); !got.Equal(want) {
		return fmt.Sprintf("IDs(Mistake) = %v, oracle %v", got, want)
	}
	return sameProbes(tb, oSusp, oMist, probe)
}

func sameProbes(tb *Table, oSusp, oMist *mapSet, probe []ident.ID) string {
	for _, id := range probe {
		tag, st := tb.Get(id)
		wt, wok := oSusp.Get(id)
		wst := Suspected
		if !wok {
			wt, wok = oMist.Get(id)
			wst = Mistake
		}
		if !wok {
			wst = Absent
		}
		if st != wst || st != Absent && tag != wt {
			return fmt.Sprintf("Get(%v) = %d,%v, oracle %d,%v", id, tag, st, wt, wst)
		}
	}
	return ""
}

// TestQuickDifferentialVsMapOracle drives the table and a pair of map oracles
// through the same random operations — Put into either set or out of both,
// both merge laws, clones — over ids on both sides of Limit and invalid ones,
// and holds the reads equal after each step: Get and Compare's three
// answers in both states against the oracle's guards and contents, and
// every eighth step the entry lists and id sets. The oracles are only handed
// ids the table accepts: an id outside [0, Limit) must leave the table as it
// was.
// Clones are taken mid-sequence and swapped in, so a clone that shared
// storage with its origin would diverge from the oracles.
func TestQuickDifferentialVsMapOracle(t *testing.T) {
	ids := []ident.ID{ident.Nil, -7, 0, 1, 2, 3, 31, 63, 64, 65, 127, 500, Limit - 1, Limit, Limit + 1, 1 << 30}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := &Table{}
		oSusp, oMist := &mapSet{}, &mapSet{}
		for step := 0; step < 400; step++ { // 400 is a multiple of 8: the last step compares the whole table
			id := ids[r.Intn(len(ids))]
			tag := Tag(r.Intn(6))
			op := r.Intn(10)
			switch op {
			case 0, 1, 2:
				st := State(op)
				wantPrev := Absent
				if InRange(id) {
					if oSusp.Remove(id) {
						wantPrev = Suspected
					}
					if oMist.Remove(id) {
						wantPrev = Mistake
					}
					switch st {
					case Suspected:
						oSusp.Add(id, tag)
					case Mistake:
						oMist.Add(id, tag)
					}
				}
				if prev := tb.Put(id, tag, st); prev != wantPrev {
					t.Logf("seed %d step %d: Put(%v,%d,%v) = %v, oracle %v", seed, step, id, tag, st, prev, wantPrev)
					return false
				}
			case 3:
				if r.Intn(8) == 0 { // empty the table: its stale tags must not resurface
					susp, mist := tb.Entries()
					for _, e := range append(susp, mist...) {
						tb.Put(e.ID, 0, Absent)
					}
					oSusp.Clear()
					oMist.Clear()
				}
			case 4:
				// Continue on the clones and scribble on the originals: the
				// clones must not see it.
				c, cs, cm := tb.Clone(), oSusp.Clone(), oMist.Clone()
				tb.Put(1, 99, Suspected)
				tb.Put(2, 0, Absent)
				tb.Put(Limit-1, 98, Mistake)
				tb, oSusp, oMist = &c, cs, cm
			case 5, 6:
				want := InRange(id) && mapMergeSuspicion(oSusp, oMist, Entry{id, tag})
				if got := mergeSuspicion(tb, Entry{id, tag}); got != want {
					t.Logf("seed %d step %d: MergeSuspicion(%v,%d) = %v, oracle %v", seed, step, id, tag, got, want)
					return false
				}
			case 7, 8, 9:
				var wantA, wantC bool
				if InRange(id) {
					wantA, wantC = mapMergeMistake(oSusp, oMist, Entry{id, tag})
				}
				if a, c := mergeMistake(tb, Entry{id, tag}); a != wantA || c != wantC {
					t.Logf("seed %d step %d: MergeMistake(%v,%d) = %v,%v, oracle %v,%v", seed, step, id, tag, a, c, wantA, wantC)
					return false
				}
			}
			if got, want := fresher(tb, id, tag), mapFresher(oSusp, oMist, id, tag); got != want {
				t.Logf("seed %d step %d: Compare(⟨%v,%d⟩, Suspected) > 0 is %v, oracle %v", seed, step, id, tag, got, want)
				return false
			}
			if got, want := fresherOrEqual(tb, id, tag), mapFresherOrEqual(oSusp, oMist, id, tag); got != want {
				t.Logf("seed %d step %d: Compare(⟨%v,%d⟩, Mistake) >= 0 is %v, oracle %v", seed, step, id, tag, got, want)
				return false
			}
			holds := func(o *mapSet) bool { held, ok := o.Get(id); return ok && held == tag }
			if (tb.Compare(Entry{id, tag}, Suspected) == 0) != holds(oSusp) || (tb.Compare(Entry{id, tag}, Mistake) == 0) != holds(oMist) {
				t.Logf("seed %d step %d: Compare(⟨%v,%d⟩, ·) == 0 disagrees with what the oracle holds", seed, step, id, tag)
				return false
			}
			// A walk of the table costs Limit slots once Limit-1 is in it,
			// so the whole table is compared every eighth step and last.
			if diff := sameAsOracle(tb, oSusp, oMist, ids, step%8 == 7); diff != "" {
				t.Logf("seed %d step %d (op %d on %v): %s", seed, step, op, id, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOutOfRangeIDsSizeNothing: an id at or above Limit is refused like an
// invalid one, so the largest id a peer can name does not size the storage.
func TestOutOfRangeIDsSizeNothing(t *testing.T) {
	var tb Table
	for _, id := range []ident.ID{Limit, 1 << 30, math.MaxInt32, ident.Nil, math.MinInt32} {
		for _, st := range []State{Absent, Suspected, Mistake} {
			if prev := tb.Put(id, 1, st); prev != Absent {
				t.Errorf("Put(%v, %v) replaced %v", id, st, prev)
			}
		}
		for _, st := range []State{Absent, Suspected, Mistake} {
			if c := tb.Compare(Entry{ID: id, Tag: 0}, st); c != 1 {
				t.Errorf("Compare(%v, %v) = %d, want 1: an id the table cannot hold is Absent", id, st, c)
			}
		}
		if _, st := tb.Get(id); st != Absent {
			t.Errorf("id %v was stored", id)
		}
	}
	if susp, mist := tb.Entries(); len(susp)+len(mist) != 0 || len(tb.slots) != 0 {
		t.Errorf("refused ids left %v, %v and %d slots", susp, mist, len(tb.slots))
	}
	tb.Put(Limit-1, 7, Mistake)
	if tag, st := tb.Get(Limit - 1); tag != 7 || st != Mistake {
		t.Errorf("Get(Limit-1) = %d,%v; want 7,Mistake", tag, st)
	}
}

func TestQuickFresherMonotone(t *testing.T) {
	// If incoming tag a is accepted and b > a, then b is accepted too.
	f := func(seed int64, a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		r := rand.New(rand.NewSource(seed))
		var tb Table
		id := ident.ID(1)
		tb.Put(id, Tag(r.Intn(1000)), State(r.Intn(3)))
		if fresher(&tb, id, Tag(a)) && !fresher(&tb, id, Tag(b)) {
			return false
		}
		if fresherOrEqual(&tb, id, Tag(a)) && !fresherOrEqual(&tb, id, Tag(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFresherImpliesfresherOrEqual(t *testing.T) {
	f := func(hasSusp bool, cur uint16, incoming uint16) bool {
		var tb Table
		if hasSusp {
			tb.Put(2, Tag(cur), Suspected)
		} else {
			tb.Put(2, Tag(cur), Mistake)
		}
		if fresher(&tb, 2, Tag(incoming)) && !fresherOrEqual(&tb, 2, Tag(incoming)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddGet(b *testing.B) {
	var tb Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ident.ID(i % 128)
		tb.Put(id, Tag(i), State(1+i&1))
		tb.Get(id)
	}
}

func BenchmarkEntries(b *testing.B) {
	var tb Table
	for i := 0; i < 64; i++ {
		tb.Put(ident.ID(i), Tag(i), State(1+i&1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tb.Entries()
	}
}
