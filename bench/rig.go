package main

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/liveshard"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/tcpnet"
	"asyncfd/internal/trace"
)

// rig is one built live system: monitor, service, two senders.
type rig struct {
	spec    liveSpec
	p       *probe
	log     *trace.Log
	svc     *liveshard.Service
	monitor *tcpnet.Transport
	senders []*sender
	startMS float64 // liveshard.start_ms
	dialMS  float64 // tcpnet.dial_ms
}

// newRig is the live set-up a user waits for: service built, peers
// registered, both dials complete, one heartbeat of every peer folded, every
// peer trusted.
func newRig(spec liveSpec, pl *plan) (*rig, error) {
	r := &rig{spec: spec, log: &trace.Log{}, p: &probe{rings: make([]ring, spec.peers)}}
	monitorID := ident.ID(spec.peers)
	timeout := 4 * spec.intervals[0]
	// A window of 32 is full by the end of the ladder, so what a φ
	// evaluation costs no longer depends on how long the run has been going.
	// The nominal interval is twice the slowest: Service.Start primes every
	// estimator with the time it was called at and takes 0.8 s to register
	// 16384 peers, which an estimator primed with 500 ms does not sit out.
	phi := phiaccrual.EstimatorConfig{Interval: 2 * spec.intervals[0], Threshold: 8, WindowSize: 32}
	if err := phi.Validate(); err != nil {
		return nil, err
	}
	var err error
	r.svc, err = liveshard.New(liveshard.Config{
		Self: monitorID, Shards: spec.shards, QueueLen: shardQueue, ScanInterval: 10 * time.Millisecond,
		Sink: r.log,
		NewEstimator: func(id ident.ID, now time.Duration) liveshard.PeerEstimator {
			e := &probedEstimator{p: r.p, ring: &r.p.rings[id]}
			if spec.estimator == "phi" {
				e.inner, _ = phiaccrual.NewEstimator(phi, now) // validated above
			} else {
				e.inner = heartbeat.NewEstimator(timeout, now)
			}
			if spec.wrapEstimator != nil {
				e.inner = spec.wrapEstimator(id, e.inner)
			}
			r.p.estimators = append(r.p.estimators, e)
			return e
		},
	})
	if err != nil {
		return nil, err
	}
	r.p.svc = r.svc
	r.monitor, err = tcpnet.New(tcpnet.Config{
		Self: monitorID, ListenAddr: "127.0.0.1:0", ConcurrentDeliver: true,
		Handler: &probedHandler{p: r.p, firstSnd: monitorID + 1},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	ids := make([]ident.ID, spec.peers)
	for i := range ids {
		ids[i] = ident.ID(i)
	}
	start := time.Now()
	r.svc.AddPeers(ids...)
	r.svc.Start()
	r.startMS = float64(time.Since(start)) / 1e6

	for i := range pl.senders {
		// The send queue holds a full pass, as in cmd/fdload, so a burst
		// never drops on the sender's side.
		tr, err := tcpnet.New(tcpnet.Config{
			Self: monitorID + 1 + ident.ID(i), ListenAddr: "127.0.0.1:0",
			Handler:   node.HandlerFunc(func(ident.ID, any) {}),
			SendQueue: 2*len(pl.senders[i].peers) + 64,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		tr.AddPeer(monitorID, r.monitor.Addr())
		r.senders = append(r.senders, &sender{senderPlan: pl.senders[i], idx: i, tr: tr, monitor: monitorID})
	}
	start = time.Now()
	for _, s := range r.senders {
		s.tr.Send(monitorID, heartbeat.Message{From: s.peers[0]})
	}
	for !(r.p.hello[0].Load() && r.p.hello[1].Load()) {
		if time.Since(start) > 5*time.Second {
			r.close()
			return nil, errors.New("senders did not reach the monitor within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	r.dialMS = float64(time.Since(start)) / 1e6
	if err := r.warm(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	for _, s := range r.senders {
		s.tr.Close()
	}
	if r.svc != nil {
		r.svc.Close()
	}
	if r.monitor != nil {
		r.monitor.Close()
	}
}

// landedSince counts the heartbeats that have come to rest since the two
// snapshots were taken: folded, evicted from a shard queue, or dropped on a
// sender's queue.
func (r *rig) landedSince(svc0 liveshard.Stats, net0 tcpnet.Stats) uint64 {
	svc, net := r.svc.Stats(), r.senderStats()
	return svc.Processed - svc0.Processed + svc.Dropped() - svc0.Dropped() + net.FramesDropped - net0.FramesDropped
}

func (r *rig) senderStats() (st tcpnet.Stats) {
	for _, s := range r.senders {
		x := s.tr.Stats()
		st.FramesSent += x.FramesSent
		st.FramesDropped += x.FramesDropped
		st.Writes += x.Writes
	}
	return st
}

// warm ends the set-up: one untracked heartbeat for every peer, a chunk that
// fits a shard queue at a time, each chunk landed before the next, and then
// every peer trusted, so that the ladder starts on warm connections, caches
// and estimator windows.
func (r *rig) warm() error {
	const chunk = shardQueue / 4
	start := time.Now()
	for from, sent := 0, 0; sent < r.spec.peers; from += chunk {
		svc0, net0 := r.svc.Stats(), r.senderStats()
		n := 0
		for _, s := range r.senders {
			for _, id := range s.peers[min(from, len(s.peers)):min(from+chunk, len(s.peers))] {
				s.tr.Send(s.monitor, heartbeat.Message{From: id})
				n++
			}
		}
		for sent += n; r.landedSince(svc0, net0) < uint64(n); sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				return errors.New("warm pass was not folded within 5s")
			}
		}
	}
	for ; r.svc.Suspects().Len() > 0; sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			return fmt.Errorf("%d peers still suspected 5s into the warm pass", r.svc.Suspects().Len())
		}
	}
	return nil
}

// stepStats is what one ladder step measured.
type stepStats struct {
	interval time.Duration
	start    time.Duration // service clock
	wall     time.Duration
	offered  int
	folded   int
	latency  []int64 // due → Observe
	late     []int64 // due → Send call

	// Traced run only.
	sendCall, transit, queueWait, observeCall []int64

	senderDrops, dropOldest, dropNewest uint64
	frames, writes, scans               uint64 // sender frames and kernel writes, monitor scans
	queueMax                            int
	queueGrew                           bool
	spans                               []span
}

func (s *stepStats) rate() float64 { return float64(s.offered) / s.wall.Seconds() }

// void: the generator's own lateness already breaks the latency limit, so
// the step says nothing about the system. ok: the system sustained the step
// within the SLO.
func (s *stepStats) void() bool { return quantile(s.late, 0.99) > int64(sloP99) }
func (s *stepStats) ok() bool {
	return !s.void() && s.folded == s.offered && s.senderDrops+s.dropOldest+s.dropNewest == 0 &&
		!s.queueGrew && quantile(s.latency, 0.99) <= int64(sloP99)
}

// runStep offers one ladder step and collects what became of every
// heartbeat. dead peers fall silent deadFrom into the step. A traced step
// also times Send, the handler and the estimators' inner calls, and keeps up
// to keepSpans heartbeats as spans.
func (r *rig) runStep(idx int, interval, dur time.Duration, dead map[ident.ID]bool, deadFrom time.Duration, traced bool, keepSpans int) *stepStats {
	p := r.p
	p.traced.Store(traced)
	defer p.traced.Store(false)
	slabs := make([][]record, len(r.senders))
	for i, s := range r.senders {
		slabs[i] = s.schedule(dur, interval, r.spec.burst, dead, deadFrom)
		p.slabs[idx][i].Store(&slabs[i])
	}
	start := r.svc.Now() + time.Millisecond
	st := &stepStats{interval: interval, start: start}
	net0, svc0 := r.senderStats(), r.svc.Stats()
	done := make(chan struct{})
	go func() {
		together(r.senders, func(s *sender) {
			s.offer(slabs[s.idx], int64(start), seqOf(idx, s.idx, 0), p.now, traced)
		})
		close(done)
	}()
	// Watch the shard queues while the step runs: a backlog that is deeper
	// in the last quarter than in the first is a queue that grows.
	var depth []int
	poll := time.NewTicker(2 * time.Millisecond)
watch:
	for {
		select {
		case <-done:
			break watch
		case <-poll.C:
			depth = append(depth, r.svc.Stats().QueueLen)
		}
	}
	poll.Stop()
	st.wall = r.svc.Now() - start
	for _, d := range depth {
		st.queueMax = max(st.queueMax, d)
	}
	if q := len(depth) / 4; q > 0 {
		st.queueGrew = mean(depth[len(depth)-q:]) > mean(depth[:q])+0.1*float64(shardQueue*r.spec.shards)
	}
	// Let what is still in flight land, but briefly: the next step must
	// start before any estimator's timeout notices the gap.
	for _, s := range slabs {
		st.offered += len(s)
	}
	for wait := time.Now(); r.landedSince(svc0, net0) < uint64(st.offered) && time.Since(wait) < 100*time.Millisecond; {
		sleep(time.Millisecond)
	}
	net1, svc1 := r.senderStats(), r.svc.Stats()
	st.senderDrops = net1.FramesDropped - net0.FramesDropped
	st.dropOldest = svc1.DroppedOldest - svc0.DroppedOldest
	st.dropNewest = svc1.DroppedNewest - svc0.DroppedNewest
	st.frames, st.writes = net1.FramesSent-net0.FramesSent, net1.Writes-net0.Writes
	st.scans = svc1.Scans - svc0.Scans

	st.late = make([]int64, 0, st.offered)
	st.latency = make([]int64, 0, st.offered)
	for i := range slabs {
		p.slabs[idx][i].Store(nil)
		for j := range slabs[i] {
			rec := &slabs[i][j]
			due := int64(start) + rec.due
			sendAt, observed := rec.sendAt.Load(), rec.observeAt.Load()
			st.late = append(st.late, sendAt-due)
			if observed == 0 {
				continue
			}
			st.folded++
			st.latency = append(st.latency, observed-due)
			if !traced {
				continue
			}
			sendRet, handlerAt := rec.sendRet.Load(), rec.handlerAt.Load()
			st.sendCall = append(st.sendCall, sendRet-sendAt)
			st.transit = append(st.transit, max(handlerAt-sendRet, 0))
			st.queueWait = append(st.queueWait, observed-handlerAt)
			st.observeCall = append(st.observeCall, rec.handlerRet.Load()-handlerAt)
			if len(st.spans) < keepSpans {
				st.spans = append(st.spans, heartbeatSpans(idx, int32(len(st.spans)), due, rec)...)
			}
		}
	}
	return st
}

// sort orders the samples for the quantile calls. It is kept out of runStep:
// sorting a few hundred thousand samples between two steps is a gap long
// enough for an estimator's timeout to notice.
func (s *stepStats) sort() {
	for _, v := range [][]int64{s.latency, s.late, s.sendCall, s.transit, s.queueWait, s.observeCall} {
		slices.Sort(v)
	}
}

// heartbeatSpans renders one heartbeat's record as spans: the root from due
// time to Observe and, under it, generator lateness, the tcpnet leg and the
// liveshard leg.
func heartbeatSpans(step int, id int32, due int64, rec *record) []span {
	sendAt, handlerAt, observed := rec.sendAt.Load(), rec.handlerAt.Load(), rec.observeAt.Load()
	return []span{
		{ID: id, Parent: -1, Run: step, Name: layHB.String(), Start: due, End: observed},
		{ID: id + 1, Parent: id, Run: step, Name: layGen.String(), Start: due, End: sendAt},
		{ID: id + 2, Parent: id, Run: step, Name: layTcpnet.String(), Start: sendAt, End: handlerAt},
		{ID: id + 3, Parent: id, Run: step, Name: layLiveshard.String(), Start: handlerAt, End: observed},
	}
}

func mean(v []int) float64 {
	sum := 0
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}

// floodBlocks is the least number of equal blocks the unpaced step folds; the
// median block is reported, which a stall of the box during one block leaves
// alone. (Not the fastest, as for the single-threaded sweeps: how fast six
// goroutines on two cores get through a block depends on how the scheduler
// happens to place them, and the fastest block of a run is the luckiest.)
const floodBlocks = 16

// saturate is the unpaced step: both senders flood, a bounded window in
// flight, until the monitor has folded blocks blocks of block heartbeats and
// goes on, block by block, until atLeast has passed. It returns each block's
// wall and CPU seconds.
func (r *rig) saturate(blocks int, atLeast time.Duration, block uint64, dead map[ident.ID]bool) (wall, cpu []float64, err error) {
	var stop atomic.Bool
	var sent atomic.Int64
	base, baseNet := r.svc.Stats(), r.senderStats()
	inFlight := func() int64 { return sent.Load() - int64(r.landedSince(base, baseNet)) }
	done := make(chan struct{})
	begin := time.Now()
	go func() {
		together(r.senders, func(s *sender) { s.flood(&stop, dead, inFlight, &sent) })
		close(done)
	}()
	start, cpu0 := begin, cpuSeconds()
	for (len(wall) < blocks || time.Since(begin) < atLeast) && err == nil {
		folded := r.svc.Stats().Processed - base.Processed
		switch {
		case folded >= uint64(len(wall)+1)*block:
			now, cpu1 := time.Now(), cpuSeconds()
			wall, cpu = append(wall, now.Sub(start).Seconds()), append(cpu, cpu1-cpu0)
			start, cpu0 = now, cpu1
		case time.Since(begin) > atLeast+30*time.Second:
			err = fmt.Errorf("unpaced step folded %d heartbeats, short of %d blocks of %d, in %v", folded, blocks, block, time.Since(begin).Round(time.Second))
		default:
			sleep(200 * time.Microsecond)
		}
	}
	stop.Store(true)
	<-done
	// Let what is in flight land, so that a second flood starts with an
	// empty window like the first.
	for wait := time.Now(); inFlight() > 0 && time.Since(wait) < time.Second; {
		sleep(time.Millisecond)
	}
	return wall, cpu, err
}
