package lint

import "strings"

// Class is how fdlint treats a package when deciding which invariants apply.
type Class int

const (
	// Neutral packages are support code (stats, wire, ident, node, trace,
	// scenario, lint itself): they never touch simulated time, so maprange
	// and walltime do not sweep them, but rngdiscipline and clonefields do.
	Neutral Class = iota
	// Sim packages sit inside the deterministic simulation boundary: all
	// time flows from des.Kernel/node.Env, all randomness from the seeded
	// draw-counted kernel RNG, and map iteration order must never leak into
	// behavior. maprange and walltime sweep these.
	Sim
	// Live packages talk to real clocks, sockets and terminals (tcpnet,
	// liveshard, examples, cmd). Wall-clock time and ad-hoc RNGs are their job;
	// only clonefields applies.
	Live
)

// classTable is the shared package-classification table every analyzer
// consults. A key classifies the named package and everything below it
// (longest matching prefix wins); packages matching no entry are Neutral.
var classTable = map[string]Class{
	"asyncfd/internal/des":        Sim,
	"asyncfd/internal/netsim":     Sim,
	"asyncfd/internal/qos":        Sim,
	"asyncfd/internal/exp":        Sim,
	"asyncfd/internal/fd":         Sim,
	"asyncfd/internal/chen":       Sim,
	"asyncfd/internal/phiaccrual": Sim,
	"asyncfd/internal/heartbeat":  Sim,
	"asyncfd/internal/monitor":    Sim,
	"asyncfd/internal/core":       Sim,
	"asyncfd/internal/consensus":  Sim,
	"asyncfd/internal/faults":     Sim,
	"asyncfd/internal/topology":   Sim,
	"asyncfd/internal/liveshard":  Live,
	"asyncfd/internal/tcpnet":     Live,
	"asyncfd/examples":            Live,
	"asyncfd/cmd":                 Live,
}

// rngOwnerPath is the one package tree allowed to construct math/rand
// sources: its countingSource is what makes RNG state snapshotable.
const rngOwnerPath = "asyncfd/internal/des"

// underTree reports whether path is root or a package below it.
func underTree(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// classOf returns the classification of an import path per classTable,
// using the longest matching prefix entry.
func classOf(path string) Class {
	best, bestLen := Neutral, -1
	for root, c := range classTable {
		if underTree(path, root) && len(root) > bestLen {
			best, bestLen = c, len(root)
		}
	}
	return best
}

func isSim(path string) bool  { return classOf(path) == Sim }
func isLive(path string) bool { return classOf(path) == Live }
