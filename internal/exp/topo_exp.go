package exp

// topo_exp.go holds what the scenario engine's topology program (LT,
// scenarios/lt.json) builds its cells from: the ring / grid / scale-free /
// MANET communication graphs (internal/topology), the scaling direction of
// the partial-connectivity follow-up literature. The detector under test is
// the neighbor-local direct heartbeat (KindHeartbeat on ClusterConfig.Graph:
// Peers = graph neighbors, netsim neighbor restriction matching, bytes
// counted): every process monitors only its neighborhood, so per-process
// cost is driven by connectivity degree, not by n — exactly the property the
// sweep measures. Cells at n=1024–4096 are tractable because both sides of
// the pipeline are sparse: netsim's per-node fan-out lists and O(1)
// partition labels keep simulation cost degree-proportional, and the qos
// Judge turns metric extraction into one accumulator pass over the trace
// instead of an O(n²·E) rescan.

import (
	"fmt"
	"math"
	"math/rand"

	"asyncfd/internal/ident"
	"asyncfd/internal/topology"
)

// ltGraph builds one instance of the named topology family on n vertices.
// Randomized families (scale-free, manet) draw from r; regular families
// (ring, grid) ignore it. The names are the ones scenario.Parse accepts
// (TestScenarioNameListsMatchEngine).
func ltGraph(name string, n int, r *rand.Rand) (*topology.Graph, error) {
	switch name {
	case "ring":
		return topology.Circulant(n, 1), nil
	case "grid":
		// Squarest torus: rows = largest divisor of n not above √n.
		rows := 1
		for d := 1; d*d <= n; d++ {
			if n%d == 0 {
				rows = d
			}
		}
		return topology.Grid(rows, n/rows), nil
	case "scale-free":
		return topology.ScaleFree(r, n, 3), nil
	case "manet":
		// Radio graph in a 1000×1000 region with the range chosen for an
		// expected degree of ≈8: deg ≈ n·πr²/A ⇒ r = √(deg·A/(π·n)).
		const width, height, wantDeg = 1000.0, 1000.0, 8.0
		radius := math.Sqrt(wantDeg * width * height / (math.Pi * float64(n)))
		return topology.RandomGeometric(r, n, width, height, radius), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

// ltVictim picks the crash victim: the smallest id in the upper half of the
// id space with at least one neighbor (an isolated MANET node has no
// observers to detect it).
func ltVictim(g *topology.Graph) ident.ID {
	n := g.Len()
	for v := n / 2; v < n; v++ {
		if g.Degree(ident.ID(v)) > 0 {
			return ident.ID(v)
		}
	}
	return ident.ID(n - 1)
}
