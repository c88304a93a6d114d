package liveshard

import (
	"math/bits"
	"sync/atomic"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// drainBatch bounds how many queued events a worker folds in per wakeup
// before giving the scan tick a chance to run.
const drainBatch = 256

// shard is one estimator worker: a bounded ingest queue and the exclusively
// owned per-peer records behind it.
type shard struct {
	svc *Service
	idx int
	in  chan event

	// Owned by the worker goroutine (no locking).
	peers   node.DenseMap[*peerRec]
	peerIDs []ident.ID

	processed     atomic.Uint64
	droppedOldest atomic.Uint64
	droppedNewest atomic.Uint64
	scans         atomic.Uint64
	hist          latencyHist
}

// run is the worker: build the shard's estimators and close primed, then
// loop — fold ingested heartbeats into the estimators, sweep for timeouts
// every ScanInterval, exit on Close. Each estimator is primed with the clock
// read at its own construction: primed with one reading taken before the
// first was built, the last of many was born already old enough to suspect
// (bench/README.md Finding 7).
func (sh *shard) run(primed chan<- struct{}) {
	defer sh.svc.wg.Done()
	for _, id := range sh.peerIDs {
		sh.peers.Put(id, &peerRec{id: id, est: sh.svc.cfg.NewEstimator(id, sh.svc.Now())})
	}
	close(primed)
	ticker := time.NewTicker(sh.svc.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case ev := <-sh.in:
			sh.fold(ev)
			// Drain opportunistically to amortize scheduling, but leave
			// the loop regularly so scan ticks are not starved.
			for i := 1; i < drainBatch; i++ {
				select {
				case ev := <-sh.in:
					sh.fold(ev)
				default:
					i = drainBatch
				}
			}
		case <-ticker.C:
			sh.scan()
		case <-sh.svc.done:
			return
		}
	}
}

// fold applies one heartbeat sighting to its estimator.
func (sh *shard) fold(ev event) {
	rec := sh.peers.Get(ev.peer)
	rec.est.Observe(ev.at)
	if rec.suspected {
		sh.transition(rec, false)
	}
	sh.hist.record(sh.svc.Now() - ev.ingest)
	sh.processed.Add(1)
}

// scan sweeps the shard's peers for silence-driven suspicion transitions.
func (sh *shard) scan() {
	now := sh.svc.Now()
	for _, id := range sh.peerIDs {
		rec := sh.peers.Get(id)
		if !rec.suspected && rec.est.Suspected(now) {
			sh.transition(rec, true)
		}
	}
	sh.scans.Add(1)
}

// transition flips one peer's suspicion state and, under the service's
// output lock, publishes it to IsSuspected and Suspects and emits it to the
// sink stamped with the clock read there: the workers' transitions reach
// the sink one at a time, in time order.
func (sh *shard) transition(rec *peerRec, suspected bool) {
	rec.suspected = suspected
	s := sh.svc
	s.out.Lock()
	defer s.out.Unlock()
	if suspected {
		s.suspected.Add(rec.id)
	} else {
		s.suspected.Remove(rec.id)
	}
	if s.cfg.Sink != nil {
		s.cfg.Sink.OnSuspicion(s.Now(), s.cfg.Self, rec.id, suspected)
	}
}

// heartbeatFrom extracts the sending peer from a direct heartbeat. A gossip
// vector is not one: it carries a counter for every process, not a sighting
// of its sender alone.
func heartbeatFrom(payload any) (ident.ID, bool) {
	m, ok := payload.(heartbeat.Message)
	return m.From, ok
}

// latencyHist is a lock-free power-of-two histogram of ingest-to-estimate
// latencies: bucket i holds samples in [2^i, 2^(i+1)) microseconds. Workers
// record; Stats readers aggregate concurrently.
type latencyHist struct {
	buckets [32]atomic.Uint64
}

func (h *latencyHist) record(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 0 → bucket 0, [2^i,2^(i+1)) → i+1
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
}

// quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// recorded latencies, or 0 if none were recorded.
func (h *latencyHist) quantile(q float64) time.Duration {
	var counts [32]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<31) * time.Microsecond
}

// merge folds other's counts into h (used to aggregate shards).
func (h *latencyHist) merge(other *latencyHist) {
	for i := range h.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
}

// Stats is a point-in-time aggregate over all shards.
type Stats struct {
	// Shards is the worker count K.
	Shards int
	// Processed counts heartbeats folded into estimators.
	Processed uint64
	// DroppedOldest counts queued events evicted under overload;
	// DroppedNewest counts arrivals dropped when eviction lost a race.
	DroppedOldest, DroppedNewest uint64
	// Unregistered counts sightings of peers AddPeers never named, refused
	// by Observe.
	Unregistered uint64
	// Scans counts completed timeout sweeps across all workers.
	Scans uint64
	// QueueLen is the instantaneous total ingest backlog.
	QueueLen int
	// IngestP50 and IngestP99 bound the median and 99th-percentile
	// ingest-to-estimate latency.
	IngestP50, IngestP99 time.Duration
}

// Dropped is the total of both drop classes.
func (st Stats) Dropped() uint64 { return st.DroppedOldest + st.DroppedNewest }

// Stats aggregates counters across shards. Safe to call concurrently with
// ingestion.
func (s *Service) Stats() Stats {
	st := Stats{Shards: len(s.shards), Unregistered: s.unregistered.Load()}
	var agg latencyHist
	for _, sh := range s.shards {
		st.Processed += sh.processed.Load()
		st.DroppedOldest += sh.droppedOldest.Load()
		st.DroppedNewest += sh.droppedNewest.Load()
		st.Scans += sh.scans.Load()
		st.QueueLen += len(sh.in)
		agg.merge(&sh.hist)
	}
	st.IngestP50 = agg.quantile(0.50)
	st.IngestP99 = agg.quantile(0.99)
	return st
}
