package ident

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	tests := []struct {
		id   ID
		want string
	}{
		{0, "p0"},
		{7, "p7"},
		{41, "p41"},
		{Nil, "p⊥"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("ID(%d).String() = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestIDValid(t *testing.T) {
	if Nil.Valid() {
		t.Error("Nil.Valid() = true, want false")
	}
	if !ID(0).Valid() {
		t.Error("ID(0).Valid() = false, want true")
	}
	if !ID(100).Valid() {
		t.Error("ID(100).Valid() = false, want true")
	}
}

func TestSetZeroValue(t *testing.T) {
	var s Set
	if s.Has(0) {
		t.Fatal("zero Set reports element 0")
	}
	if s.Len() != 0 {
		t.Fatalf("zero Set Len = %d, want 0", s.Len())
	}
	s.Add(5)
	if !s.Has(5) || s.Len() != 1 {
		t.Fatalf("after Add(5): Has=%v Len=%d", s.Has(5), s.Len())
	}
}

func TestSetAddRemoveHas(t *testing.T) {
	s := NewSet(10)
	ids := []ID{0, 3, 9, 63, 64, 65, 200}
	for _, id := range ids {
		s.Add(id)
	}
	for _, id := range ids {
		if !s.Has(id) {
			t.Errorf("Has(%v) = false after Add", id)
		}
	}
	if s.Len() != len(ids) {
		t.Errorf("Len = %d, want %d", s.Len(), len(ids))
	}
	s.Remove(63)
	s.Remove(0)
	if s.Has(63) || s.Has(0) {
		t.Error("Remove did not delete elements")
	}
	if s.Len() != len(ids)-2 {
		t.Errorf("Len after remove = %d, want %d", s.Len(), len(ids)-2)
	}
	// Removing absent and negative ids is a no-op.
	s.Remove(1000)
	s.Remove(Nil)
	if s.Len() != len(ids)-2 {
		t.Error("Remove of absent element changed Len")
	}
}

func TestSetAddNilNoop(t *testing.T) {
	var s Set
	s.Add(Nil)
	if s.Len() != 0 {
		t.Error("Add(Nil) inserted an element")
	}
	if s.Has(Nil) {
		t.Error("Has(Nil) = true")
	}
}

func TestFullSet(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 130} {
		s := FullSet(n)
		if s.Len() != n {
			t.Errorf("FullSet(%d).Len() = %d", n, s.Len())
		}
		for i := 0; i < n; i++ {
			if !s.Has(ID(i)) {
				t.Errorf("FullSet(%d) missing %d", n, i)
			}
		}
		if s.Has(ID(n)) {
			t.Errorf("FullSet(%d) contains %d", n, n)
		}
	}
}

func TestSetOf(t *testing.T) {
	s := SetOf(4, 1, 4, 9)
	if s.Len() != 3 {
		t.Errorf("SetOf Len = %d, want 3 (duplicates collapse)", s.Len())
	}
	if got := s.String(); got != "{p1, p4, p9}" {
		t.Errorf("SetOf(4, 1, 4, 9) = %s, want {p1, p4, p9}", got)
	}
}

func TestSetUnion(t *testing.T) {
	a := SetOf(1, 2, 3, 70)
	b := SetOf(3, 4, 70, 100)

	u := a.Clone()
	u.Union(b)
	for _, id := range []ID{1, 2, 3, 4, 70, 100} {
		if !u.Has(id) {
			t.Errorf("union missing %v", id)
		}
	}
	if u.Len() != 6 {
		t.Errorf("union Len = %d, want 6", u.Len())
	}
	if !a.Equal(SetOf(1, 2, 3, 70)) {
		t.Errorf("union changed its operand: %v", a)
	}
}

func TestSetEqual(t *testing.T) {
	a := SetOf(1, 64)
	b := SetOf(1, 64)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("equal sets reported unequal")
	}
	b.Remove(64) // b now has trailing zero word
	if a.Equal(b) {
		t.Error("unequal sets reported equal")
	}
	c := SetOf(1)
	if !b.Equal(c) || !c.Equal(b) {
		t.Error("sets with different capacity but same elements reported unequal")
	}
	var zero Set
	empty := NewSet(100)
	if !zero.Equal(empty) || !empty.Equal(zero) {
		t.Error("empty sets with different capacities reported unequal")
	}
}

func TestSetForEachOrderAndStop(t *testing.T) {
	s := SetOf(5, 1, 200, 64)
	var got []ID
	s.ForEach(func(id ID) bool {
		got = append(got, id)
		return true
	})
	want := []ID{1, 5, 64, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
	count := 0
	s.ForEach(func(ID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("ForEach early stop visited %d, want 2", count)
	}
}

func TestSetClear(t *testing.T) {
	s := SetOf(1, 2, 3)
	s.Clear()
	if s.Len() != 0 {
		t.Error("Clear left elements")
	}
	s.Add(2)
	if s.Len() != 1 {
		t.Error("set unusable after Clear")
	}
}

func TestSetCloneIndependence(t *testing.T) {
	a := SetOf(1, 2)
	b := a.Clone()
	b.Add(3)
	b.Remove(1)
	if !a.Has(1) || a.Has(3) {
		t.Error("Clone shares storage with original")
	}
}

func TestSetString(t *testing.T) {
	if got := SetOf(2, 0).String(); got != "{p0, p2}" {
		t.Errorf("String = %q, want {p0, p2}", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
}

func TestSortIDs(t *testing.T) {
	ids := []ID{5, 1, 3}
	SortIDs(ids)
	if ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Errorf("SortIDs = %v", ids)
	}
}

// randomIDs produces a bounded random slice of valid IDs for property tests.
func randomIDs(r *rand.Rand) []ID {
	n := r.Intn(40)
	out := make([]ID, n)
	for i := range out {
		out[i] = ID(r.Intn(256))
	}
	return out
}

func TestQuickSetModelConformance(t *testing.T) {
	// The bitset must behave exactly like a map[ID]bool model under a random
	// sequence of adds and removes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Set
		model := make(map[ID]bool)
		for i := 0; i < 200; i++ {
			id := ID(r.Intn(300))
			if r.Intn(2) == 0 {
				s.Add(id)
				model[id] = true
			} else {
				s.Remove(id)
				delete(model, id)
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for id := range model {
			if !s.Has(id) {
				return false
			}
		}
		ok := true
		s.ForEach(func(id ID) bool {
			if !model[id] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := SetOf(randomIDs(r)...), SetOf(randomIDs(r)...)
		ab := a.Clone()
		ab.Union(b)
		ba := b.Clone()
		ba.Union(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| + |A ∩ B| == |A| + |B|, with A ∩ B counted by Has.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := SetOf(randomIDs(r)...), SetOf(randomIDs(r)...)
		u := a.Clone()
		u.Union(b)
		both := 0
		a.ForEach(func(id ID) bool {
			if b.Has(id) {
				both++
			}
			return true
		})
		return u.Len()+both == a.Len()+b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetAdd(b *testing.B) {
	s := NewSet(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(ID(i % 1024))
	}
}

func BenchmarkSetForEach(b *testing.B) {
	s := FullSet(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		s.ForEach(func(ID) bool { n++; return true })
	}
}
