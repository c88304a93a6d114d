package node

import (
	"testing"

	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
)

func TestDenseMapDenseAndSparse(t *testing.T) {
	var m DenseMap[*struct{ v int }]
	type box = struct{ v int }
	small := &box{1}
	big := &box{2}
	m.Put(3, small)
	m.Put(denseLimit+5, big) // lands in the sparse fallback
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if m.Get(3) != small || m.Get(denseLimit+5) != big {
		t.Fatal("Get returned wrong values")
	}
	if m.Get(0) != nil || m.Get(4) != nil || m.Get(denseLimit+6) != nil {
		t.Fatal("Get of absent IDs must return the zero value")
	}
}

func TestDenseMapOverwriteAndDelete(t *testing.T) {
	var m DenseMap[*struct{}]
	a, b := &struct{}{}, &struct{}{}
	for _, id := range []ident.ID{7, denseLimit + 1} {
		m.Put(id, a)
		m.Put(id, b) // overwrite must not double-count
		if m.Len() != 1 {
			t.Fatalf("Len after overwrite of %d = %d, want 1", id, m.Len())
		}
		if m.Get(id) != b {
			t.Fatalf("Get(%d) did not see the overwrite", id)
		}
		m.Put(id, nil) // storing the zero value deletes
		if m.Len() != 0 || m.Get(id) != nil {
			t.Fatalf("Put(%d, zero) did not delete (Len=%d)", id, m.Len())
		}
	}
}

func TestDenseMapForEachOrderAndStop(t *testing.T) {
	var m DenseMap[*struct{}]
	v := &struct{}{}
	for _, id := range []ident.ID{denseLimit + 9, 4, 0, denseLimit + 2, 17} {
		m.Put(id, v)
	}
	var got []ident.ID
	m.ForEach(func(id ident.ID, _ *struct{}) bool {
		got = append(got, id)
		return true
	})
	want := []ident.ID{0, 4, 17, denseLimit + 2, denseLimit + 9}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want ascending %v", got, want)
		}
	}
	n := 0
	m.ForEach(func(ident.ID, *struct{}) bool {
		n++
		return n < 2 // early stop
	})
	if n != 2 {
		t.Fatalf("ForEach ignored early stop: visited %d", n)
	}
}

// TestDenseMapGrowsGeometrically locks the cost of building a peer table: n
// detectors that each index n peers must not copy O(n²) words per detector.
func TestDenseMapGrowsGeometrically(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	v := &struct{}{}
	allocs := testing.AllocsPerRun(10, func() {
		var m DenseMap[*struct{}]
		for id := ident.ID(0); id < 4096; id++ {
			m.Put(id, v)
		}
		if m.Len() != 4096 || len(m.dense) != 4096 {
			t.Fatalf("Len = %d, len(dense) = %d, want 4096: the array ends at the highest id", m.Len(), len(m.dense))
		}
	})
	if allocs > 20 {
		t.Errorf("inserting ids 0..4095 in order made %.0f allocations, want ≤ 20", allocs)
	}
}
