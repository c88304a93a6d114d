package exp

// topo_exp.go holds what the scenario engine's topology program (LT,
// scenarios/lt.json) builds its cells from: the ring / grid / scale-free /
// MANET communication graphs (topology.Family), the scaling direction of
// the partial-connectivity follow-up literature. The detector under test is
// the neighbor-local direct heartbeat (KindHeartbeat on ClusterConfig.Graph:
// Peers = graph neighbors, netsim neighbor restriction matching, bytes
// counted): every process monitors only its neighborhood, so per-process
// cost is driven by connectivity degree, not by n — exactly the property the
// sweep measures. Cells at n=1024–4096 are tractable because both sides of
// the pipeline are sparse: netsim's neighbourhood lists and per-process
// island arrays keep simulation cost degree-proportional, and qos.Fold
// turns metric extraction into one accumulator pass over the trace instead
// of an O(n²·E) rescan.

import (
	"asyncfd/internal/ident"
	"asyncfd/internal/topology"
)

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
