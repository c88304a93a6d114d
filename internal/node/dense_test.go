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
	if len(m.dense) != 4 || len(m.sparse) != 1 {
		t.Fatalf("len(dense) = %d, len(sparse) = %d, want 4 and 1", len(m.dense), len(m.sparse))
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
		m.Put(id, b)
		if m.Get(id) != b {
			t.Fatalf("Get(%d) did not see the overwrite", id)
		}
		m.Put(id, nil) // storing the zero value deletes
		if m.Get(id) != nil || len(m.sparse) != 0 {
			t.Fatalf("Put(%d, zero) did not delete (sparse %v)", id, m.sparse)
		}
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
		if len(m.dense) != 4096 {
			t.Fatalf("len(dense) = %d, want 4096: the array ends at the highest id", len(m.dense))
		}
	})
	if allocs > 20 {
		t.Errorf("inserting ids 0..4095 in order made %.0f allocations, want ≤ 20", allocs)
	}
}
