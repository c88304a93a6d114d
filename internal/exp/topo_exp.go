package exp

// topo_exp.go holds what the scenario engine's topology program (LT,
// scenarios/lt.json) builds its cells from: the ring / grid / scale-free /
// MANET communication graphs (internal/topology), the scaling direction of
// the partial-connectivity follow-up literature, and the cluster wired onto
// them. The detector under test is the neighbor-local direct heartbeat
// (heartbeat.Node with Peers = graph neighbors, netsim neighbor restriction
// matching): every process monitors only its neighborhood, so per-process
// cost is driven by connectivity degree, not by n — exactly the property the
// sweep measures. Cells at n=1024–4096 are tractable because both sides of
// the pipeline are sparse: netsim's per-node fan-out lists and O(1)
// partition labels keep simulation cost degree-proportional, and the qos
// Judge turns metric extraction into one accumulator pass over the trace
// instead of an O(n²·E) rescan.

import (
	"math"
	"math/rand"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
	"asyncfd/internal/topology"
	"asyncfd/internal/trace"
	"asyncfd/internal/wire"
)

// ltGraph builds one instance of the named topology family on n vertices.
// Randomized families (scale-free, manet) draw from r; regular families
// (ring, grid) ignore it.
func ltGraph(name string, n int, r *rand.Rand) *topology.Graph {
	switch name {
	case "ring":
		return topology.Circulant(n, 1)
	case "grid":
		// Squarest torus: rows = largest divisor of n not above √n.
		rows := 1
		for d := 1; d*d <= n; d++ {
			if n%d == 0 {
				rows = d
			}
		}
		return topology.Grid(rows, n/rows)
	case "scale-free":
		return topology.ScaleFree(r, n, 3)
	case "manet":
		// Radio graph in a 1000×1000 region with the range chosen for an
		// expected degree of ≈8: deg ≈ n·πr²/A ⇒ r = √(deg·A/(π·n)).
		const width, height, wantDeg = 1000.0, 1000.0, 8.0
		radius := math.Sqrt(wantDeg * width * height / (math.Pi * float64(n)))
		return topology.RandomGeometric(r, n, width, height, radius)
	default:
		panic("exp: unknown LT topology " + name)
	}
}

// topoCluster wires neighbor-local direct heartbeat detectors onto a
// topology graph: each process broadcasts heartbeats to — and monitors —
// exactly its graph neighborhood.
type topoCluster struct {
	sim   *des.Simulator
	net   *netsim.Network
	log   *trace.Log
	nodes []*heartbeat.Node
}

func newTopoCluster(g *topology.Graph, seed int64, delay netsim.DelayModel, interval, timeout time.Duration) (*topoCluster, error) {
	n := g.Len()
	c := &topoCluster{sim: des.New(seed), log: &trace.Log{}}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay, SizeOf: wire.Size})
	c.nodes = make([]*heartbeat.Node, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		cell := &handlerCell{}
		env := c.net.AddNode(id, cell)
		hb, err := heartbeat.NewNode(env, heartbeat.Config{
			Self: id, Peers: g.Neighbors(id), Interval: interval, Timeout: timeout, Sink: c.log,
		})
		if err != nil {
			return nil, err
		}
		cell.h = hb
		c.nodes[i] = hb
		c.net.SetNeighbors(id, g.Neighbors(id))
	}
	// Start in identity order, each node at its own random phase (matching
	// NewCluster's jitter convention).
	for i := 0; i < n; i++ {
		hb := c.nodes[i]
		jitter := time.Duration(c.sim.Rand().Int63n(int64(time.Second)))
		c.sim.At(jitter, hb.Start)
	}
	return c, nil
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

// ltRun is one seed's measurement of a topology cell.
type ltRun struct {
	det    qos.DetectionStats
	stats  netsim.Stats
	avgDeg float64
}
