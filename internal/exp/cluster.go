// Package exp is the experiment harness: it wires simulated clusters of each
// failure-detector implementation, injects faults and disturbances, and
// regenerates every table and figure of the (reconstructed) evaluation as
// printable data tables. One function per experiment, listed by Experiments;
// cmd/fdbench and the root bench suite run them through RunResults, and the
// suite also times each one on its own.
//
// The engine is sharded and seed-addressed: every table cell decomposes
// into independent (configuration, seed, horizon) jobs on a bounded worker
// pool, assembled in job-index order so parallel output is byte-identical
// to serial. With Options.Repeat every replicated cell runs as an R-seed
// family whose per-metric distributions (Options.Samples, aggregated by
// internal/stats) become the rows of the asyncfd-bench/v2 schema. The
// repository README ("The experiments", "Determinism") names the table ids
// — E1–E8 paper family, A1/A2 ablations, R1/R2 fault scenarios, X1/X2
// partial-connectivity extensions, L1/L5 large-n sweeps — and
// docs/BENCHMARKS.md documents the replication methodology.
package exp

import (
	"fmt"
	"time"

	"asyncfd/internal/chen"
	"asyncfd/internal/core"
	"asyncfd/internal/des"
	"asyncfd/internal/faults"
	"asyncfd/internal/fd"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/qos"
	"asyncfd/internal/topology"
	"asyncfd/internal/trace"
	"asyncfd/internal/wire"
)

// Kind selects a failure-detector implementation; its value is the name a
// scenario's cluster.detectors lists and the tables print.
type Kind string

const (
	// KindAsync is the paper's time-free query–response detector.
	KindAsync Kind = "async"
	// KindHeartbeat is the fixed-timeout heartbeat baseline.
	KindHeartbeat Kind = "heartbeat"
	// KindPhi is the φ-accrual baseline.
	KindPhi Kind = "phi-accrual"
	// KindChen is the Chen NFD-E baseline.
	KindChen Kind = "chen-nfde"
	// KindGossip is the Friedman–Tcharny-style gossip heartbeat, the
	// timer-based comparator of the partial-connectivity extension (X1/X2):
	// counters flood across hops, so it detects beyond its neighbourhood.
	// Not one of the paper's four: AllKinds leaves it out.
	KindGossip Kind = "gossip-ft"
)

// AllKinds lists the detector implementations the paper compares, in
// comparison order.
func AllKinds() []Kind { return []Kind{KindAsync, KindHeartbeat, KindPhi, KindChen} }

// ClusterConfig describes one simulated detector cluster.
type ClusterConfig struct {
	Kind Kind
	N    int // number of processes; with Graph set, the graph's order
	F    int
	Seed int64
	// Delay is the network latency model (required).
	Delay netsim.DelayModel
	// CountBytes attaches the wire codec for byte accounting.
	CountBytes bool
	// StartJitter staggers node start times uniformly over [0, StartJitter)
	// — real deployments never start rounds in lockstep, and the detector's
	// flooding advantage depends on phase diversity. Default 1s; set
	// negative to start everyone at t=0.
	StartJitter time.Duration

	// Async knobs (KindAsync).
	Window      time.Duration // extra collection window per round (the Δ of the paper's evaluation)
	Interval    time.Duration // pause between rounds
	Rebroadcast time.Duration // re-query period while the quorum is unmet (needed under partitions)
	DisableTags bool          // A1 ablation only

	// Timer-based knobs.
	HBInterval   time.Duration // Δ for heartbeat/phi/chen/gossip senders
	HBTimeout    time.Duration // Θ for heartbeat and gossip
	PhiThreshold float64       // φ threshold
	ChenAlpha    time.Duration // α margin for NFD-E

	// Graph, when set, is the communication topology: every process sends
	// to, and monitors, exactly its graph neighbourhood. Nil is the paper's
	// model, the full mesh. With a graph, KindAsync runs the detector in its
	// extension setting — an unknown, partially connected, possibly mobile
	// network. That is NOT part of the reproduced DSN 2003 paper (known
	// membership, full connectivity): it is the direction the paper's future
	// work points to, published later as INRIA RR-6088 / arXiv cs/0701015.
	// Processes initially know only themselves, learn their range from
	// received queries, wait for d−f responses (d = the graph's range
	// density, which must exceed f+1) and flood suspicions and mistakes
	// across hops inside queries. The same core.Detector serves both models.
	// The graph should be f-covering, i.e. (F+1)-connected, for the ◇S
	// guarantees to hold.
	Graph *topology.Graph
	// Mobility enables the extension's known-set eviction rule (KindAsync on
	// a Graph): a process heard of only through relayed mistakes is pruned,
	// which ends the ping-pong of suspicions after a RelocateAt. Mobility
	// scenarios need Rebroadcast > 0, so that a node whose query was lost
	// while it was away re-queries.
	Mobility bool
}

func (c *ClusterConfig) fillDefaults() {
	if c.Window == 0 && c.Kind == KindAsync {
		c.Window = time.Second // the paper family's Δ between lines 7 and 8
	}
	if c.HBInterval == 0 {
		c.HBInterval = time.Second // Δ = 1s, as in the evaluation setup
	}
	if c.HBTimeout == 0 {
		c.HBTimeout = 2 * time.Second // Θ = 2s
	}
	if c.ChenAlpha == 0 {
		c.ChenAlpha = 300 * time.Millisecond
	}
	if c.StartJitter == 0 {
		c.StartJitter = time.Second
	}
}

// runner is implemented by every detector node runtime.
type runner interface {
	fd.Detector
	Start()
	Stop()
	Restart(fresh bool) // fd.Restartable: crash-recovery support
	Deliver(from ident.ID, payload any)
	node.Cloneable // warm-fork replication: checkpoint/rollback support
}

// Cluster is a running simulated detector deployment — the only one: every
// experiment, scenario program and simulated main builds its kernel, network,
// trace log and detector runtimes here.
type Cluster struct {
	Sim     *des.Simulator  //fdlint:allow clonefields checkpointed by its own Snapshot, which Cluster.Snapshot calls
	Net     *netsim.Network //fdlint:allow clonefields checkpointed by its own Snapshot, which Cluster.Snapshot calls
	Log     *trace.Log      //fdlint:allow clonefields checkpointed by Mark/TruncateTo, which Cluster.Snapshot/Restore call
	Members ident.Set       //fdlint:allow clonefields every process id, fixed at construction

	procs []*process //fdlint:allow clonefields by id; each runtime is checkpointed by its own Snapshot, which Cluster.Snapshot calls
}

// process is one identity on the network: its detector runtime and, once
// attached, the protocol layered on it. It is also what breaks the
// construction cycle env↔node.
type process struct {
	run runner
	app node.Handler
}

// Deliver hands every payload to both: a detector runtime and an attached
// protocol each ignore payload types that are not theirs.
func (p *process) Deliver(from ident.ID, payload any) {
	p.run.Deliver(from, payload)
	if p.app != nil {
		p.app.Deliver(from, payload)
	}
}

// NewCluster builds a detector on every process and schedules their starts.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.fillDefaults()
	if cfg.Delay == nil {
		return nil, fmt.Errorf("exp: ClusterConfig.Delay is required")
	}
	density := 0
	if cfg.Graph != nil {
		cfg.N, density = cfg.Graph.Len(), cfg.Graph.RangeDensity()
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("exp: need N ≥ 2, got %d", cfg.N)
	}
	c := &Cluster{
		Sim:     des.New(cfg.Seed),
		Log:     &trace.Log{},
		Members: ident.FullSet(cfg.N),
		procs:   make([]*process, cfg.N),
	}
	netCfg := netsim.Config{Delay: cfg.Delay}
	if cfg.CountBytes {
		netCfg.SizeOf = wire.Size
	}
	c.Net = netsim.New(c.Sim, netCfg)

	for i := range c.procs {
		id := ident.ID(i)
		p := &process{}
		env := c.Net.AddNode(id, p)
		peers := c.Members
		if cfg.Graph != nil {
			peers = cfg.Graph.Neighbors(id)
			c.Net.SetNeighbors(id, peers)
		}
		run, err := buildNode(env, cfg, peers, density, c.Log)
		if err != nil {
			return nil, err
		}
		p.run = run
		c.procs[i] = p
	}
	// Start in identity order, each node at its own random phase.
	for _, p := range c.procs {
		var jitter time.Duration
		if cfg.StartJitter > 0 {
			jitter = time.Duration(c.Sim.Rand().Int63n(int64(cfg.StartJitter)))
		}
		c.Sim.At(jitter, p.run.Start)
	}
	return c, nil
}

// buildNode constructs the configured detector kind on env, monitoring peers
// (the process's neighbourhood, or everyone). density is the range density of
// the cluster's graph, 0 on the full mesh.
func buildNode(env *netsim.Env, cfg ClusterConfig, peers ident.Set, density int, log *trace.Log) (runner, error) {
	id := env.Self()
	switch cfg.Kind {
	case KindAsync:
		det := core.Config{
			Self:        id,
			Membership:  core.KnownMembership,
			N:           cfg.N,
			F:           cfg.F,
			DisableTags: cfg.DisableTags,
		}
		if cfg.Graph != nil {
			det.Membership, det.D, det.Mobility = core.UnknownMembership, density, cfg.Mobility
		}
		return core.NewNode(env, core.NodeConfig{
			Detector:    det,
			Window:      cfg.Window,
			Interval:    cfg.Interval,
			Rebroadcast: cfg.Rebroadcast,
			Sink:        log,
		})
	case KindHeartbeat:
		return heartbeat.NewNode(env, heartbeat.Config{
			Self:     id,
			Peers:    peers,
			Interval: cfg.HBInterval,
			Timeout:  cfg.HBTimeout,
			Sink:     log,
		})
	case KindPhi:
		return phiaccrual.NewNode(env, phiaccrual.Config{
			Self:      id,
			Peers:     peers,
			Interval:  cfg.HBInterval,
			Threshold: cfg.PhiThreshold,
			Sink:      log,
		})
	case KindChen:
		return chen.NewNode(env, chen.Config{
			Self:     id,
			Peers:    peers,
			Interval: cfg.HBInterval,
			Alpha:    cfg.ChenAlpha,
			Sink:     log,
		})
	case KindGossip:
		// Gossip carries and watches every process's counter, not only
		// its neighbours'.
		return heartbeat.NewGossipNode(env, heartbeat.Config{
			Self:     id,
			Peers:    ident.FullSet(cfg.N),
			Interval: cfg.HBInterval,
			Timeout:  cfg.HBTimeout,
			Sink:     log,
		})
	default:
		return nil, fmt.Errorf("exp: unknown detector kind %q", cfg.Kind)
	}
}

// Detector returns the oracle of process id.
func (c *Cluster) Detector(id ident.ID) fd.Detector { return c.procs[id].run }

// Attach layers a protocol on process id: from now on h receives every
// payload delivered to id, next to the detector runtime. Build h on
// c.Net.Env(id) and read c.Detector(id) from it — that is how consensus runs
// over the cluster. Attached handlers are not part of Snapshot.
func (c *Cluster) Attach(id ident.ID, h node.Handler) { c.procs[id].app = h }

// Inject delivers a crafted payload directly to a node's detector, bypassing
// the network — used by the A1 ablation to replay stale protocol messages.
func (c *Cluster) Inject(to, from ident.ID, payload any) {
	c.procs[to].run.Deliver(from, payload)
}

// Apply schedules a fault scenario, returning the ground truth. Recovery
// events restart the process's detector runtime (fresh or persisted state)
// after the network layer has revived it.
func (c *Cluster) Apply(s faults.Schedule) *qos.GroundTruth {
	return s.ApplyFunc(c.Sim, c.Net, func(id ident.ID, fresh bool) {
		if int(id) < len(c.procs) {
			c.procs[id].run.Restart(fresh)
		}
	})
}

// setRange rewrites id's neighbourhood, both directions, now.
func (c *Cluster) setRange(id ident.ID, neighbors ident.Set) {
	c.Net.Neighbors(id).ForEach(func(o ident.ID) bool {
		if !neighbors.Has(o) {
			nb := c.Net.Neighbors(o)
			nb.Remove(id)
			c.Net.SetNeighbors(o, nb)
		}
		return true
	})
	neighbors.ForEach(func(o ident.ID) bool {
		nb := c.Net.Neighbors(o)
		nb.Add(id)
		c.Net.SetNeighbors(o, nb)
		return true
	})
	c.Net.SetNeighbors(id, neighbors)
}

// RelocateAt disconnects id at time from and reattaches it at time to with a
// brand-new neighbourhood: the full mobility scenario of the extension (the
// node "moves to another range"). While separated it sends and receives
// nothing but keeps its state; reattaching it to its old neighbourhood is a
// node that reconnects at the same place.
func (c *Cluster) RelocateAt(id ident.ID, newNeighbors ident.Set, from, to time.Duration) {
	c.Sim.At(from, func() { c.setRange(id, ident.Set{}) })
	c.Sim.At(to, func() { c.setRange(id, newNeighbors) })
}

// RunUntil advances virtual time to t.
func (c *Cluster) RunUntil(t time.Duration) { c.Sim.RunUntil(t) }

// ClusterSnapshot is a checkpoint of a running cluster: the DES kernel (event
// slab, queue, clock, RNG position), the network layer, the suspicion trace
// mark, and every node runtime's detector state, captured together so the
// warm-fork engine can roll the whole simulation back to the fork horizon.
type ClusterSnapshot struct {
	sim   *des.Snapshot
	net   *netsim.Snapshot
	mark  int
	nodes []any // per-node checkpoints in identity order
}

// Snapshot checkpoints the cluster at the current virtual time. The cluster
// must be quiescent (between RunUntil calls, never from inside an event).
func (c *Cluster) Snapshot() *ClusterSnapshot {
	s := &ClusterSnapshot{
		sim:   c.Sim.Snapshot(),
		net:   c.Net.Snapshot(),
		mark:  c.Log.Mark(),
		nodes: make([]any, len(c.procs)),
	}
	for i, p := range c.procs {
		s.nodes[i] = p.run.Snapshot()
	}
	return s
}

// Restore rolls the cluster back to the state captured by s, in place: every
// layer restores into its live objects so the closures held by pending kernel
// events keep referencing valid state. A snapshot may be restored any number
// of times; each restore yields a bit-identical replay point.
func (c *Cluster) Restore(s *ClusterSnapshot) {
	c.Sim.Restore(s.sim)
	c.Net.Restore(s.net)
	c.Log.TruncateTo(s.mark)
	for i, p := range c.procs {
		p.run.Restore(s.nodes[i])
	}
}
