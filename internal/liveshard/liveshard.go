// Package liveshard is the sharded live detector runtime: the bridge from
// the simulator-only engine to a service that monitors 10k+ peers over real
// sockets (cmd/fdload drives it at target heartbeat rates).
//
// Architecture: peers are hash-partitioned across K estimator workers.
// Each worker exclusively owns its peers' heartbeat state (one estimator per
// peer — heartbeat.Estimator or phiaccrual.Estimator, the same rule objects
// the simulator nodes run inside internal/monitor), so the per-heartbeat hot
// path takes no locks at all; cross-shard coordination
// exists only at the edges (the ingest queues in, one output lock out).
// Ingest queues are bounded with a drop-oldest policy under overload: a
// heartbeat that cannot be enqueued evicts the oldest queued event first,
// because the freshest sighting is the one that matters to a failure
// detector — parking the producer (the socket read loop) would instead
// backpressure the transport into exactly the head-of-line stalls the
// sharding exists to remove. Drops are counted, never silent.
//
// Suspicion transitions are stamped and emitted to an fd.SuspicionSink under
// that one lock, so the sink sees one call at a time in time order, as the
// simulator's kernel clock gives it, and the live service plugs into the
// same trace/qos pipeline (Chen-style detection and mistake metrics over a
// real run).
package liveshard

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// PeerEstimator is the per-peer estimation state a shard worker owns.
// heartbeat.Estimator and phiaccrual.Estimator implement it: the same rule
// objects the simulator nodes run, so a rule has one implementation on both
// pipelines. (chen.Estimator needs the heartbeat's sequence number, which an
// event here does not carry.) Implementations need no internal locking: all
// calls for one peer come from its shard's worker goroutine.
type PeerEstimator interface {
	// Observe records a heartbeat arrival at time at.
	Observe(at time.Duration)
	// Suspected reports whether the peer is suspected at time now.
	Suspected(now time.Duration) bool
}

// Config parameterizes the sharded detector service.
type Config struct {
	// Self is the monitor's identity (stamped on emitted transitions).
	Self ident.ID
	// Shards is the worker count K (default 1).
	Shards int
	// QueueLen bounds each shard's ingest queue (default 1024).
	QueueLen int
	// ScanInterval is how often each worker sweeps its peers for timeouts
	// (default 25ms).
	ScanInterval time.Duration
	// NewEstimator builds the per-peer estimation state, primed at time
	// now (required). Called once per peer during Start, one call at a
	// time, by the worker that will own the peer.
	NewEstimator func(peer ident.ID, now time.Duration) PeerEstimator
	// Sink, if set, receives suspicion transitions: one call at a time,
	// each stamped with the service clock at or after the last, so a
	// trace.Log can be the sink. A call must not call back into the
	// service, and a sink that is not safe for concurrent use is read after
	// Close.
	Sink fd.SuspicionSink
}

// event is one heartbeat sighting flowing into a shard.
type event struct {
	peer   ident.ID
	at     time.Duration // arrival timestamp (service clock)
	ingest time.Duration // enqueue timestamp, for ingest-to-estimate latency
}

// peerRec is a worker-owned per-peer record.
type peerRec struct {
	id        ident.ID
	est       PeerEstimator
	suspected bool
}

// Service is the sharded detector. Create with New, register peers with
// AddPeers, then Start; Observe (or Deliver) feeds heartbeats; Close joins
// the workers.
type Service struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	started bool
	closed  bool

	// registered holds the peers AddPeers has named: republished by each
	// call, fixed from Start on, read by Observe without a lock.
	registered   atomic.Pointer[ident.Set]
	unregistered atomic.Uint64

	shards []*shard
	done   chan struct{}
	wg     sync.WaitGroup

	// out orders what the workers emit: a transition updates suspected,
	// reads the clock and calls the sink under it.
	out       sync.Mutex
	suspected ident.Set
}

// New builds a service. NewEstimator is required.
func New(cfg Config) (*Service, error) {
	if cfg.NewEstimator == nil {
		return nil, errors.New("liveshard: Config.NewEstimator is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = 25 * time.Millisecond
	}
	s := &Service{
		cfg:    cfg,
		start:  time.Now(),
		shards: make([]*shard, cfg.Shards),
		done:   make(chan struct{}),
	}
	s.registered.Store(&ident.Set{})
	for i := range s.shards {
		s.shards[i] = &shard{
			svc: s,
			idx: i,
			in:  make(chan event, cfg.QueueLen),
		}
	}
	return s, nil
}

// Now returns the service clock (time since New). All event timestamps and
// emitted transitions are offsets on this clock.
func (s *Service) Now() time.Duration { return time.Since(s.start) }

// AddPeers registers monitored peers. Must be called before Start.
func (s *Service) AddPeers(ids ...ident.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("liveshard: AddPeers after Start")
	}
	reg := s.registered.Load().Clone()
	for _, id := range ids {
		reg.Add(id)
	}
	s.registered.Store(&reg)
}

// shardOf maps a peer to its owning shard: a multiplicative (Fibonacci)
// hash spreads even dense sequential IDs uniformly across workers.
func (s *Service) shardOf(id ident.ID) *shard {
	h := uint64(uint32(id)) * 0x9E3779B97F4A7C15
	return s.shards[(h>>33)%uint64(len(s.shards))]
}

// Start launches the K workers, one after the other: each primes its own
// peers' estimators (the start of monitoring counts as a sighting) and is
// already serving them while the next one primes, so an estimator waits for
// its first heartbeat no longer than its own shard took to build. Start
// returns once every estimator exists.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("liveshard: double Start")
	}
	s.started = true
	s.registered.Load().ForEach(func(id ident.ID) bool {
		sh := s.shardOf(id)
		sh.peerIDs = append(sh.peerIDs, id)
		return true
	})
	for _, sh := range s.shards {
		s.wg.Add(1)
		primed := make(chan struct{})
		go sh.run(primed)
		<-primed
	}
}

// Close stops the workers and joins them. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	s.wg.Wait()
}

// Observe ingests a heartbeat sighting for peer at the current service
// time. It never blocks: under overload the shard's oldest queued event is
// evicted to make room (drop-oldest), and if the queue is still full — a
// racing producer won the slot — the new event is dropped. A peer AddPeers
// never named is refused before it reaches a queue, where it could evict a
// registered peer's sighting. All three drops are counted.
func (s *Service) Observe(peer ident.ID) {
	if !s.registered.Load().Has(peer) {
		s.unregistered.Add(1)
		return
	}
	now := s.Now()
	sh := s.shardOf(peer)
	ev := event{peer: peer, at: now, ingest: now}
	select {
	case sh.in <- ev:
		return
	default:
	}
	select {
	case <-sh.in:
		sh.droppedOldest.Add(1)
	default:
	}
	select {
	case sh.in <- ev:
	default:
		sh.droppedNewest.Add(1)
	}
}

// Deliver implements node.Handler, so a Service can sit directly behind a
// tcpnet.Transport (with Config.ConcurrentDeliver set: the service is
// internally synchronized). The heartbeat's own From field identifies the
// peer, which lets one inbound connection carry heartbeats for many logical
// peers (how cmd/fdload reaches 10k peers over a bounded socket count).
func (s *Service) Deliver(_ ident.ID, payload any) {
	if id, ok := heartbeatFrom(payload); ok {
		s.Observe(id)
	}
}

var _ node.Handler = (*Service)(nil)
var _ fd.Detector = (*Service)(nil)

// IsSuspected reports whether peer is currently suspected.
func (s *Service) IsSuspected(peer ident.ID) bool {
	s.out.Lock()
	defer s.out.Unlock()
	return s.suspected.Has(peer)
}

// Suspects returns the set of currently suspected peers.
func (s *Service) Suspects() ident.Set {
	s.out.Lock()
	defer s.out.Unlock()
	return s.suspected.Clone()
}
