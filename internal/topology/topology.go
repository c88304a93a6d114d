// Package topology builds and checks the communication graphs used by the
// partial-connectivity extension: geometric (radio-range) graphs, circulant
// graphs for controlled density sweeps, the ring/grid/scale-free/MANET
// families of the topology sweeps, and vertex-connectivity checks backing
// the f-covering property (G must be (f+1)-connected, by Menger's theorem).
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"asyncfd/internal/ident"
)

// Point is a position in the simulation region.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Graph is an undirected communication graph over processes 0..n-1.
type Graph struct {
	n   int
	adj []ident.Set
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	adj := make([]ident.Set, n)
	for i := range adj {
		adj[i] = ident.NewSet(n)
	}
	return &Graph{n: n, adj: adj}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return g.n }

// AddEdge inserts the undirected edge {a, b}; self-loops are ignored.
func (g *Graph) AddEdge(a, b ident.ID) {
	if a == b || !a.Valid() || !b.Valid() || int(a) >= g.n || int(b) >= g.n {
		return
	}
	g.adj[a].Add(b)
	g.adj[b].Add(a)
}

// Neighbors returns a copy of a's adjacency set.
func (g *Graph) Neighbors(a ident.ID) ident.Set { return g.adj[a].Clone() }

// Degree returns the number of neighbors of a.
func (g *Graph) Degree(a ident.ID) int { return g.adj[a].Len() }

// RangeDensity returns d: the size of the smallest range set, i.e. the
// minimum degree plus one (the range includes the node itself).
func (g *Graph) RangeDensity() int {
	if g.n == 0 {
		return 0
	}
	min := g.adj[0].Len()
	for _, a := range g.adj[1:] {
		if l := a.Len(); l < min {
			min = l
		}
	}
	return min + 1
}

// VertexConnectivityAtLeast reports whether the vertex connectivity κ(G) is
// ≥ k: by Menger's theorem, every pair of distinct non-adjacent vertices
// must be joined by at least k internally vertex-disjoint paths. It runs a
// unit-capacity max-flow on the vertex-split graph for every non-adjacent
// pair; fine for the experiment-scale graphs used here.
func (g *Graph) VertexConnectivityAtLeast(k int) bool {
	if k <= 0 {
		return true
	}
	if g.n <= k {
		return false // κ(G) ≤ n−1, and complete graphs cap at n−1
	}
	for s := 0; s < g.n; s++ {
		for t := s + 1; t < g.n; t++ {
			if g.adj[ident.ID(s)].Has(ident.ID(t)) {
				continue
			}
			if g.maxVertexDisjointPaths(ident.ID(s), ident.ID(t), k) < k {
				return false
			}
		}
	}
	return true
}

// IsFCovering reports the paper's f-covering property: G is (f+1)-connected.
func (g *Graph) IsFCovering(f int) bool { return g.VertexConnectivityAtLeast(f + 1) }

// maxVertexDisjointPaths counts internally vertex-disjoint s–t paths up to
// the bound via augmenting BFS on the standard vertex-split transform:
// vertex v becomes v_in → v_out with capacity 1 (except s and t).
func (g *Graph) maxVertexDisjointPaths(s, t ident.ID, bound int) int {
	// Node indices: v_in = 2v, v_out = 2v+1.
	type edge struct {
		to  int
		cap int
		rev int // index of reverse edge in adj[to]
	}
	adj := make([][]edge, 2*g.n)
	addEdge := func(u, v, c int) {
		adj[u] = append(adj[u], edge{to: v, cap: c, rev: len(adj[v])})
		adj[v] = append(adj[v], edge{to: u, cap: 0, rev: len(adj[u]) - 1})
	}
	for v := 0; v < g.n; v++ {
		capacity := 1
		if ident.ID(v) == s || ident.ID(v) == t {
			capacity = bound // endpoints are not interior vertices
		}
		addEdge(2*v, 2*v+1, capacity)
		g.adj[ident.ID(v)].ForEach(func(w ident.ID) bool {
			addEdge(2*v+1, 2*int(w), 1)
			return true
		})
	}
	source, sink := 2*int(s)+1, 2*int(t)
	flow := 0
	for flow < bound {
		// BFS for an augmenting path.
		parent := make([]int, len(adj))
		parentEdge := make([]int, len(adj))
		for i := range parent {
			parent[i] = -1
		}
		parent[source] = source
		queue := []int{source}
		for len(queue) > 0 && parent[sink] == -1 {
			u := queue[0]
			queue = queue[1:]
			for i, e := range adj[u] {
				if e.cap > 0 && parent[e.to] == -1 {
					parent[e.to] = u
					parentEdge[e.to] = i
					queue = append(queue, e.to)
				}
			}
		}
		if parent[sink] == -1 {
			break
		}
		// Augment by 1 along the path.
		v := sink
		for v != source {
			u := parent[v]
			e := &adj[u][parentEdge[v]]
			e.cap--
			adj[v][e.rev].cap++
			v = u
		}
		flow++
	}
	return flow
}

// Geometric builds the radio graph of the given positions: an edge joins two
// nodes iff they are within transmission range r of each other.
func Geometric(positions []Point, r float64) *Graph {
	g := New(len(positions))
	for i := range positions {
		for j := i + 1; j < len(positions); j++ {
			if positions[i].Dist(positions[j]) <= r {
				g.AddEdge(ident.ID(i), ident.ID(j))
			}
		}
	}
	return g
}

// Circulant builds the circulant graph C_n(1..k): vertex i is adjacent to
// i±1, …, i±k (mod n). Its vertex connectivity is 2k and its range density
// is 2k+1 — a convenient family for controlled density sweeps.
func Circulant(n, k int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			g.AddEdge(ident.ID(i), ident.ID((i+j)%n))
		}
	}
	return g
}

// Grid builds the rows × cols torus grid: vertex (r, c) — numbered r·cols+c
// — is adjacent to its four orthogonal neighbors with wrap-around. Every
// vertex has degree 4 (less on degenerate 1- or 2-wide tori, where wrapped
// neighbors coincide), making it the constant-degree planar-like family of
// the topology sweeps.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) ident.ID {
		return ident.ID(((r+rows)%rows)*cols + (c+cols)%cols)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r+1, c))
			g.AddEdge(id(r, c), id(r, c+1))
		}
	}
	return g
}

// ScaleFree builds a Barabási–Albert preferential-attachment graph: a seed
// clique of m+1 vertices, then each new vertex attaches to m distinct
// existing vertices chosen with probability proportional to their degree.
// The result is connected with minimum degree m and a power-law tail — the
// hub-dominated family of the topology sweeps.
func ScaleFree(r *rand.Rand, n, m int) *Graph {
	if m < 1 {
		m = 1
	}
	if n <= m+1 {
		// Too small for attachment rounds: complete graph.
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddEdge(ident.ID(i), ident.ID(j))
			}
		}
		return g
	}
	g := New(n)
	// endpoints lists every edge endpoint once; sampling it uniformly is
	// sampling vertices proportionally to degree.
	endpoints := make([]ident.ID, 0, 2*m*n)
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.AddEdge(ident.ID(i), ident.ID(j))
			endpoints = append(endpoints, ident.ID(i), ident.ID(j))
		}
	}
	chosen := make([]ident.ID, 0, m)
	for v := m + 1; v < n; v++ {
		// Rejection-sample m distinct targets in draw order, keeping the
		// construction deterministic for a given rand stream.
		chosen = chosen[:0]
		for len(chosen) < m {
			t := endpoints[r.Intn(len(endpoints))]
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		// Append after all m draws so a vertex cannot attach to itself.
		for _, t := range chosen {
			g.AddEdge(ident.ID(v), t)
			endpoints = append(endpoints, ident.ID(v), t)
		}
	}
	return g
}

// RandomGeometric builds the MANET-style random radio graph: n nodes placed
// uniformly in a width × height region, joined when within transmission
// range radius. It does not retry placements, so the result may be
// disconnected — callers that need connectivity check and redraw.
func RandomGeometric(r *rand.Rand, n int, width, height, radius float64) *Graph {
	positions := make([]Point, n)
	for i := range positions {
		positions[i] = Point{X: r.Float64() * width, Y: r.Float64() * height}
	}
	return Geometric(positions, radius)
}

// families are the graph families a scenario document or a sweep can name.
var families = []struct {
	name  string
	build func(n int, r *rand.Rand) *Graph
}{
	{"ring", func(n int, _ *rand.Rand) *Graph { return Circulant(n, 1) }},
	{"grid", func(n int, _ *rand.Rand) *Graph {
		// Squarest torus: rows = largest divisor of n not above √n.
		rows := 1
		for d := 1; d*d <= n; d++ {
			if n%d == 0 {
				rows = d
			}
		}
		return Grid(rows, n/rows)
	}},
	{"scale-free", func(n int, r *rand.Rand) *Graph { return ScaleFree(r, n, 3) }},
	{"manet", func(n int, r *rand.Rand) *Graph {
		// Radio graph in a 1000×1000 region with the range chosen for an
		// expected degree of ≈8: deg ≈ n·πr²/A ⇒ r = √(deg·A/(π·n)).
		const width, height, wantDeg = 1000.0, 1000.0, 8.0
		radius := math.Sqrt(wantDeg * width * height / (math.Pi * float64(n)))
		return RandomGeometric(r, n, width, height, radius)
	}},
}

// Family returns the builder of the named graph family: one instance on n
// vertices per call. Randomized families (scale-free, manet) draw from r;
// regular ones (ring, grid) ignore it. An unknown name is an error listing
// the known ones, so whoever accepts names from outside — the scenario
// compiler, the LT sweep — resolves them here and nowhere else.
func Family(name string) (func(n int, r *rand.Rand) *Graph, error) {
	known := make([]string, len(families))
	for i, f := range families {
		if f.name == name {
			return f.build, nil
		}
		known[i] = f.name
	}
	return nil, fmt.Errorf("topology: unknown topology %q (want one of %s)", name, strings.Join(known, ", "))
}
