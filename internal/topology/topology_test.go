package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"asyncfd/internal/ident"
)

// hasEdge reports whether {a, b} is an edge of g.
func hasEdge(g *Graph, a, b ident.ID) bool { return g.adj[a].Has(b) }

// connectedExcluding reports whether g restricted to the vertices not in
// removed is connected (vacuously true when one or zero vertices remain). It
// is the brute-force oracle TestQuickMengerSpotCheck holds
// VertexConnectivityAtLeast to.
func connectedExcluding(g *Graph, removed ident.Set) bool {
	start := ident.Nil
	remaining := 0
	for i := 0; i < g.n; i++ {
		if !removed.Has(ident.ID(i)) {
			if start == ident.Nil {
				start = ident.ID(i)
			}
			remaining++
		}
	}
	if remaining <= 1 {
		return true
	}
	visited := ident.SetOf(start)
	queue := []ident.ID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.adj[v].ForEach(func(w ident.ID) bool {
			if !removed.Has(w) && !visited.Has(w) {
				visited.Add(w)
				queue = append(queue, w)
			}
			return true
		})
	}
	return visited.Len() == remaining
}

func connected(g *Graph) bool { return connectedExcluding(g, ident.Set{}) }

func TestAddEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) {
		t.Error("edge not symmetric")
	}
	g.AddEdge(2, 2) // self-loop ignored
	if hasEdge(g, 2, 2) {
		t.Error("self-loop inserted")
	}
	g.AddEdge(0, 99) // out of range ignored
	g.AddEdge(ident.Nil, 1)
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees %d, %d after out-of-range edges, want 1, 1", g.Degree(0), g.Degree(1))
	}
	if g.Len() != 4 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestDegreeAndDensity(t *testing.T) {
	g := New(4) // path 0-1-2-3
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Error("degrees wrong")
	}
	if g.RangeDensity() != 2 {
		t.Errorf("RangeDensity = %d, want min-degree+1 = 2", g.RangeDensity())
	}
	if New(0).RangeDensity() != 0 {
		t.Error("empty graph density nonzero")
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if connected(g) {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(1, 2)
	if !connected(g) {
		t.Error("connected graph reported disconnected")
	}
}

func TestConnectedExcluding(t *testing.T) {
	// Star centered at 0: removing 0 disconnects.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if !connected(g) {
		t.Fatal("star not connected")
	}
	if connectedExcluding(g, ident.SetOf(0)) {
		t.Error("star minus center reported connected")
	}
	if !connectedExcluding(g, ident.SetOf(1, 2)) {
		t.Error("star minus two leaves reported disconnected")
	}
	if !connectedExcluding(g, ident.SetOf(0, 1, 2)) {
		t.Error("single remaining vertex should be vacuously connected")
	}
}

func TestVertexConnectivity(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Graph
		kappa int // exact vertex connectivity
	}{
		{"path4", func() *Graph {
			g := New(4)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(2, 3)
			return g
		}, 1},
		{"cycle5", func() *Graph { return Circulant(5, 1) }, 2},
		{"circulant8_2", func() *Graph { return Circulant(8, 2) }, 4},
		{"complete5", func() *Graph { return Circulant(5, 2) }, 4},
		{"two-triangles-bridge", func() *Graph {
			g := New(6)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(0, 2)
			g.AddEdge(3, 4)
			g.AddEdge(4, 5)
			g.AddEdge(3, 5)
			g.AddEdge(2, 3)
			return g
		}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := tt.build()
			if !g.VertexConnectivityAtLeast(tt.kappa) {
				t.Errorf("connectivity ≥ %d = false", tt.kappa)
			}
			if g.VertexConnectivityAtLeast(tt.kappa + 1) {
				t.Errorf("connectivity ≥ %d = true", tt.kappa+1)
			}
			if !g.VertexConnectivityAtLeast(0) {
				t.Error("connectivity ≥ 0 must always hold")
			}
		})
	}
}

func TestIsFCovering(t *testing.T) {
	// C_8(1..2) is 4-connected: f-covering for f ≤ 3.
	g := Circulant(8, 2)
	if !g.IsFCovering(3) {
		t.Error("C_8(1,2) should be 3-covering")
	}
	if g.IsFCovering(4) {
		t.Error("C_8(1,2) is not 4-covering")
	}
}

// TestQuickMengerSpotCheck cross-validates VertexConnectivityAtLeast against
// brute-force vertex removal on random small graphs: if κ ≥ k then removing
// any k−1 vertices leaves the graph connected, and if κ < k some (k−1)-set
// disconnects it.
func TestQuickMengerSpotCheck(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(3) // 5..7
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) > 0 { // dense-ish
					g.AddEdge(ident.ID(i), ident.ID(j))
				}
			}
		}
		const k = 2
		claim := g.VertexConnectivityAtLeast(k)
		// Brute force: remove every single vertex (k−1 = 1) and check
		// connectivity; κ ≥ 2 iff connected and no cut vertex.
		brute := connected(g) && n > k
		for v := 0; v < n && brute; v++ {
			if !connectedExcluding(g, ident.SetOf(ident.ID(v))) {
				brute = false
			}
		}
		return claim == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGeometric(t *testing.T) {
	pos := []Point{{0, 0}, {0, 5}, {0, 11}}
	g := Geometric(pos, 6)
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 2) || hasEdge(g, 0, 2) {
		t.Error("geometric edges wrong")
	}
}

func TestCirculantShape(t *testing.T) {
	g := Circulant(10, 3)
	for i := 0; i < 10; i++ {
		if g.Degree(ident.ID(i)) != 6 {
			t.Fatalf("degree of %d = %d, want 6", i, g.Degree(ident.ID(i)))
		}
	}
	if g.RangeDensity() != 7 {
		t.Errorf("density = %d, want 7", g.RangeDensity())
	}
}

func TestDistAndPoints(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func BenchmarkConnectivityCheck(b *testing.B) {
	g := Circulant(24, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !g.VertexConnectivityAtLeast(3) {
			b.Fatal("unexpected")
		}
	}
}

func TestGridTorus(t *testing.T) {
	g := Grid(4, 5)
	if g.Len() != 20 {
		t.Fatalf("Len = %d, want 20", g.Len())
	}
	for v := 0; v < g.Len(); v++ {
		if d := g.Degree(ident.ID(v)); d != 4 {
			t.Fatalf("degree(%d) = %d, want 4 on a torus", v, d)
		}
	}
	if !connected(g) {
		t.Error("torus grid not connected")
	}
	// Wrap-around edges: (0,0)–(3,0) and (0,0)–(0,4).
	if !hasEdge(g, 0, 15) || !hasEdge(g, 0, 4) {
		t.Error("wrap-around edges missing")
	}
}

func TestScaleFree(t *testing.T) {
	g := ScaleFree(rand.New(rand.NewSource(3)), 200, 3)
	if g.Len() != 200 {
		t.Fatalf("Len = %d, want 200", g.Len())
	}
	if !connected(g) {
		t.Error("BA graph not connected")
	}
	min, max, sum := g.Len(), 0, 0
	for v := 0; v < g.Len(); v++ {
		d := g.Degree(ident.ID(v))
		sum += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min < 3 {
		t.Errorf("min degree = %d, want ≥ m = 3", min)
	}
	if max < 3*min {
		t.Errorf("max degree = %d with min %d; expected hubs under preferential attachment", max, min)
	}
	// Seed clique of m+1=4 contributes 6 edges; each later vertex adds 3.
	wantEdges := 6 + 3*(200-4)
	if sum != 2*wantEdges {
		t.Errorf("degree sum = %d, want %d", sum, 2*wantEdges)
	}
	// Same seed ⇒ same graph.
	h := ScaleFree(rand.New(rand.NewSource(3)), 200, 3)
	for v := 0; v < g.Len(); v++ {
		if g.Degree(ident.ID(v)) != h.Degree(ident.ID(v)) {
			t.Fatalf("ScaleFree not deterministic at vertex %d", v)
		}
	}
}

func TestScaleFreeTiny(t *testing.T) {
	g := ScaleFree(rand.New(rand.NewSource(1)), 3, 3)
	if g.Len() != 3 || g.Degree(0) != 2 {
		t.Errorf("tiny BA fallback not a complete graph: n=%d deg0=%d", g.Len(), g.Degree(0))
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(rand.New(rand.NewSource(5)), 100, 1000, 1000, 200)
	if g.Len() != 100 {
		t.Fatalf("Len = %d, want 100", g.Len())
	}
	// An edge joins exactly the pairs within the radius of the positions
	// drawn, x then y, from the same stream.
	r := rand.New(rand.NewSource(5))
	pos := make([]Point, 100)
	for i := range pos {
		pos[i] = Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
	}
	for a := 0; a < g.Len(); a++ {
		for b := a + 1; b < g.Len(); b++ {
			if within := pos[a].Dist(pos[b]) <= 200; hasEdge(g, ident.ID(a), ident.ID(b)) != within {
				t.Fatalf("edge {%d,%d} present = %v at distance %.1f, radius 200", a, b, !within, pos[a].Dist(pos[b]))
			}
		}
	}
	h := RandomGeometric(rand.New(rand.NewSource(5)), 100, 1000, 1000, 200)
	for v := 0; v < g.Len(); v++ {
		if g.Degree(ident.ID(v)) != h.Degree(ident.ID(v)) {
			t.Fatalf("RandomGeometric not deterministic at vertex %d", v)
		}
	}
}

// TestFamilyBuildsByName pins the by-name builder the scenario compiler and
// the LT sweep share: the four families exist, build n vertices, keep their
// shape (ring degree 2, the squarest torus degree 4), are a function of the
// rand stream alone, and an unknown name is an error that lists them.
func TestFamilyBuildsByName(t *testing.T) {
	for _, name := range []string{"ring", "grid", "scale-free", "manet"} {
		build, err := Family(name)
		if err != nil {
			t.Fatalf("Family(%q): %v", name, err)
		}
		a, b := build(48, rand.New(rand.NewSource(7))), build(48, rand.New(rand.NewSource(7)))
		if a.Len() != 48 {
			t.Errorf("%s: %d vertices, want 48", name, a.Len())
		}
		for v := 0; v < 48; v++ {
			if !a.Neighbors(ident.ID(v)).Equal(b.Neighbors(ident.ID(v))) {
				t.Fatalf("%s: two builds from one seed differ at vertex %d", name, v)
			}
		}
		if want := map[string]int{"ring": 2, "grid": 4}[name]; want != 0 && a.Degree(5) != want {
			t.Errorf("%s: degree %d, want %d", name, a.Degree(5), want)
		}
	}
	for _, name := range []string{"", "Ring", "torus", "scalefree"} {
		if _, err := Family(name); err == nil || !strings.Contains(err.Error(), "ring, grid, scale-free, manet") {
			t.Errorf("Family(%q) = %v, want an error listing the families", name, err)
		}
	}
}
