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
	var s Set
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("zero Set not empty")
	}
	s.Add(1, 5)
	if got, ok := s.Get(1); !ok || got != 5 {
		t.Fatalf("Get(1) = %d,%v; want 5,true", got, ok)
	}
}

func TestAddReplaces(t *testing.T) {
	s := New()
	s.Add(3, 10)
	s.Add(3, 4) // paper's Add replaces unconditionally, even with older tag
	if got, _ := s.Get(3); got != 4 {
		t.Errorf("Add did not replace: tag = %d, want 4", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestAddInvalidIDNoop(t *testing.T) {
	s := New()
	s.Add(ident.Nil, 1)
	if s.Len() != 0 {
		t.Error("Add(Nil) inserted an entry")
	}
}

func TestRemove(t *testing.T) {
	s := New()
	s.Add(1, 1)
	if !s.Remove(1) {
		t.Error("Remove existing = false")
	}
	if s.Remove(1) {
		t.Error("Remove absent = true")
	}
	var zero Set
	if zero.Remove(9) {
		t.Error("Remove on zero set = true")
	}
}

func TestEntriesSorted(t *testing.T) {
	s := New()
	s.Add(9, 1)
	s.Add(2, 7)
	s.Add(5, 3)
	es := s.Entries()
	if len(es) != 3 || es[0].ID != 2 || es[1].ID != 5 || es[2].ID != 9 {
		t.Errorf("Entries = %v, want sorted by id", es)
	}
}

func TestIDSet(t *testing.T) {
	s := New()
	s.Add(1, 1)
	s.Add(64, 2)
	bits := s.IDSet()
	if !bits.Has(1) || !bits.Has(64) || bits.Len() != 2 {
		t.Errorf("IDSet = %v", bits)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.Add(1, 1)
	c := s.Clone()
	c.Add(2, 2)
	c.Add(1, 9)
	if s.Has(2) {
		t.Error("Clone shares storage")
	}
	if got, _ := s.Get(1); got != 1 {
		t.Error("Clone mutation leaked into original")
	}
}

func TestForEachStop(t *testing.T) {
	s := New()
	s.Add(1, 1)
	s.Add(2, 2)
	s.Add(3, 3)
	n := 0
	s.ForEach(func(Entry) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForEach visited %d after stop, want 1", n)
	}
}

func TestString(t *testing.T) {
	s := New()
	s.Add(10, 5)
	s.Add(2, 7)
	if got := s.String(); got != "{⟨p2, 7⟩, ⟨p10, 5⟩}" {
		t.Errorf("String = %q", got)
	}
	if got := New().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{ID: 3, Tag: 17}
	if got := e.String(); got != "⟨p3, 17⟩" {
		t.Errorf("Entry.String = %q", got)
	}
}

// --- Merge-guard semantics (Algorithm 1 lines 22 and 33) ---

// fresherOrEqual is the guard of line 33 read off MergeMistake: whether a
// mistake ⟨id, incoming⟩ would be adopted, tried on copies of the pair.
func fresherOrEqual(suspected, mistake *Set, id ident.ID, incoming Tag) bool {
	adopted, _ := MergeMistake(suspected.Clone(), mistake.Clone(), Entry{ID: id, Tag: incoming})
	return adopted
}

func TestFresherUnknownID(t *testing.T) {
	susp, mist := New(), New()
	if !Fresher(susp, mist, 4, 0) {
		t.Error("Fresher for unknown id = false; any info about an unknown id is fresh")
	}
	if !fresherOrEqual(susp, mist, 4, 0) {
		t.Error("FresherOrEqual for unknown id = false")
	}
}

func TestFresherStrict(t *testing.T) {
	susp, mist := New(), New()
	susp.Add(4, 10)
	tests := []struct {
		incoming Tag
		want     bool
	}{
		{9, false},
		{10, false}, // suspicions do NOT win ties
		{11, true},
	}
	for _, tt := range tests {
		if got := Fresher(susp, mist, 4, tt.incoming); got != tt.want {
			t.Errorf("Fresher(incoming=%d) = %v, want %v", tt.incoming, got, tt.want)
		}
	}
}

func TestFresherOrEqualTieGoesToMistake(t *testing.T) {
	susp, mist := New(), New()
	susp.Add(4, 10)
	tests := []struct {
		incoming Tag
		want     bool
	}{
		{9, false},
		{10, true}, // a mistake wins the tie against a suspicion
		{11, true},
	}
	for _, tt := range tests {
		if got := fresherOrEqual(susp, mist, 4, tt.incoming); got != tt.want {
			t.Errorf("FresherOrEqual(incoming=%d) = %v, want %v", tt.incoming, got, tt.want)
		}
	}
}

func TestFresherAgainstMistakeSet(t *testing.T) {
	susp, mist := New(), New()
	mist.Add(4, 10)
	if Fresher(susp, mist, 4, 10) {
		t.Error("suspicion with equal tag beat an existing mistake")
	}
	if !Fresher(susp, mist, 4, 11) {
		t.Error("strictly newer suspicion rejected")
	}
	if fresherOrEqual(susp, mist, 4, 9) {
		t.Error("older mistake accepted")
	}
	if !fresherOrEqual(susp, mist, 4, 10) {
		t.Error("equal mistake rejected (mistake should be re-appliable)")
	}
}

func TestCurrentTagBothSets(t *testing.T) {
	// Defensive path: if an id were in both sets, the larger tag governs.
	susp, mist := New(), New()
	susp.Add(4, 12)
	mist.Add(4, 8)
	if Fresher(susp, mist, 4, 12) {
		t.Error("incoming equal to max tag considered fresher")
	}
	if !Fresher(susp, mist, 4, 13) {
		t.Error("incoming above max tag rejected")
	}
	susp2, mist2 := New(), New()
	susp2.Add(4, 8)
	mist2.Add(4, 12)
	if Fresher(susp2, mist2, 4, 9) {
		t.Error("mistake tag ignored when larger")
	}
}

// --- Property tests ---

// sameAsOracle reports the first observable difference between s and the
// map oracle, or "" when every read agrees.
func sameAsOracle(s *Set, o *mapSet, probe []ident.ID) string {
	if s.Len() != o.Len() {
		return fmt.Sprintf("Len = %d, oracle %d", s.Len(), o.Len())
	}
	if got, want := s.Entries(), o.Entries(); !slices.Equal(got, want) {
		return fmt.Sprintf("Entries = %v, oracle %v", got, want)
	}
	if got, want := s.IDSet(), o.IDSet(); !got.Equal(want) {
		return fmt.Sprintf("IDSet = %v, oracle %v", got, want)
	}
	var walked []Entry
	s.ForEach(func(e Entry) bool { walked = append(walked, e); return true })
	if !slices.Equal(walked, o.Entries()) {
		return fmt.Sprintf("ForEach walked %v, oracle %v", walked, o.Entries())
	}
	for _, id := range probe {
		gt, gok := s.Get(id)
		wt, wok := o.Get(id)
		if gt != wt || gok != wok || s.Has(id) != o.Has(id) {
			return fmt.Sprintf("Get(%v) = %d,%v, oracle %d,%v", id, gt, gok, wt, wok)
		}
	}
	return ""
}

// TestQuickDifferentialVsMapOracle drives the id-indexed Set and the map
// oracle through the same random operations — every method and both merge
// laws, over ids on both sides of Limit and invalid ones — and holds every
// read equal after each step. The oracle is only handed ids the Set accepts:
// an id outside [0, Limit) must leave the Set as it was. Clones are taken
// mid-sequence and swapped in, so a clone that shared storage with its
// origin would diverge from the oracle's.
func TestQuickDifferentialVsMapOracle(t *testing.T) {
	ids := []ident.ID{ident.Nil, -7, 0, 1, 2, 3, 31, 63, 64, 65, 127, 500, Limit - 1, Limit, Limit + 1, 1 << 30}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		susp, mist := New(), New()
		oSusp, oMist := &mapSet{}, &mapSet{}
		for step := 0; step < 400; step++ {
			id := ids[r.Intn(len(ids))]
			tag := Tag(r.Intn(6))
			s, o := susp, oSusp
			if r.Intn(2) == 0 {
				s, o = mist, oMist
			}
			op := r.Intn(9)
			switch op {
			case 0, 1:
				s.Add(id, tag)
				if InRange(id) {
					o.Add(id, tag)
				}
			case 2:
				if s.Remove(id) != o.Remove(id) {
					t.Logf("seed %d step %d: Remove(%v) disagrees", seed, step, id)
					return false
				}
			case 3:
				if r.Intn(8) == 0 { // empty the set: its stale tags must not resurface
					for _, e := range s.Entries() {
						s.Remove(e.ID)
					}
					o.Clear()
				}
			case 4:
				// Continue on the clones and scribble on the originals: the
				// clones must not see it.
				cs, co := s.Clone(), o.Clone()
				s.Add(1, 99)
				s.Remove(2)
				s.Add(Limit-1, 98)
				if s == susp {
					susp, oSusp = cs, co
				} else {
					mist, oMist = cs, co
				}
			case 5, 6:
				want := InRange(id) && mapMergeSuspicion(oSusp, oMist, Entry{id, tag})
				if got := MergeSuspicion(susp, mist, Entry{id, tag}); got != want {
					t.Logf("seed %d step %d: MergeSuspicion(%v,%d) = %v, oracle %v", seed, step, id, tag, got, want)
					return false
				}
			case 7, 8:
				var wantA, wantC bool
				if InRange(id) {
					wantA, wantC = mapMergeMistake(oSusp, oMist, Entry{id, tag})
				}
				if a, c := MergeMistake(susp, mist, Entry{id, tag}); a != wantA || c != wantC {
					t.Logf("seed %d step %d: MergeMistake(%v,%d) = %v,%v, oracle %v,%v", seed, step, id, tag, a, c, wantA, wantC)
					return false
				}
			}
			if got, want := Fresher(susp, mist, id, tag), mapFresher(oSusp, oMist, id, tag); got != want {
				t.Logf("seed %d step %d: Fresher(%v,%d) = %v, oracle %v", seed, step, id, tag, got, want)
				return false
			}
			for _, pair := range []struct {
				s *Set
				o *mapSet
			}{{susp, oSusp}, {mist, oMist}} {
				if diff := sameAsOracle(pair.s, pair.o, ids); diff != "" {
					t.Logf("seed %d step %d (op %d on %v): %s", seed, step, op, id, diff)
					return false
				}
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
	s := New()
	for _, id := range []ident.ID{Limit, 1 << 30, math.MaxInt32, ident.Nil, math.MinInt32} {
		s.Add(id, 1)
		if s.Has(id) || s.Remove(id) {
			t.Errorf("id %v was stored", id)
		}
		if _, ok := s.Get(id); ok {
			t.Errorf("Get(%v) hit", id)
		}
	}
	if s.Len() != 0 || len(s.tags) != 0 {
		t.Errorf("refused ids left Len=%d, %d tags", s.Len(), len(s.tags))
	}
	s.Add(Limit-1, 7)
	if got, ok := s.Get(Limit - 1); !ok || got != 7 {
		t.Errorf("Get(Limit-1) = %d,%v; want 7,true", got, ok)
	}
}

func TestQuickFresherMonotone(t *testing.T) {
	// If incoming tag a is accepted and b > a, then b is accepted too.
	f := func(seed int64, a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		r := rand.New(rand.NewSource(seed))
		susp, mist := New(), New()
		id := ident.ID(1)
		if r.Intn(2) == 0 {
			susp.Add(id, Tag(r.Intn(1000)))
		} else {
			mist.Add(id, Tag(r.Intn(1000)))
		}
		if Fresher(susp, mist, id, Tag(a)) && !Fresher(susp, mist, id, Tag(b)) {
			return false
		}
		if fresherOrEqual(susp, mist, id, Tag(a)) && !fresherOrEqual(susp, mist, id, Tag(b)) {
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
		susp, mist := New(), New()
		if hasSusp {
			susp.Add(2, Tag(cur))
		} else {
			mist.Add(2, Tag(cur))
		}
		if Fresher(susp, mist, 2, Tag(incoming)) && !fresherOrEqual(susp, mist, 2, Tag(incoming)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddGet(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ident.ID(i % 128)
		s.Add(id, Tag(i))
		s.Get(id)
	}
}

func BenchmarkEntries(b *testing.B) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Add(ident.ID(i), Tag(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Entries()
	}
}
