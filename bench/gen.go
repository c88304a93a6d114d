package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/tcpnet"
)

// The live workloads are open loop: every heartbeat has its own due time
// fixed by the step's schedule before the step starts, the generator sends
// it at that time whatever happened to the ones before, and latency is
// timed from the due time. A slow system therefore shows up as latency (and
// a slow generator as lateness), never as a lower offered load.

// record follows one heartbeat through the live path. due is nanoseconds
// from the step's start; every other time is nanoseconds on the service
// clock, 0 meaning the heartbeat never got there.
// The fields are atomic because generator, socket reader and shard worker
// each write their own and the socket between them orders nothing as far as
// the race detector can see.
type record struct {
	peer       ident.ID
	due        int64
	sendAt     atomic.Int64 // just before Transport.Send
	sendRet    atomic.Int64 // Send returned (traced run only)
	handlerAt  atomic.Int64 // monitor handler entry
	handlerRet atomic.Int64 // Service.Deliver returned (traced run only)
	observeAt  atomic.Int64 // PeerEstimator.Observe returned
}

// splitmix is the workload's own random stream (splitmix64): the seed picks
// the kill cohort, the peer-to-sender assignment and the phase offsets.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// senderPlan is one sender's share of the generated input: the logical
// peers it heartbeats for and when within the interval.
type senderPlan struct {
	peers   []ident.ID      // ascending phase
	phase   []float64       // phase of each peer as a fraction of the interval
	burstAt [relays]float64 // phase of each relay's burst, same unit, ascending
}

// relays is how many relays one sender plays on a burst workload: relay j
// owns the j-th of relays equal runs of the sender's peers and emits them
// back to back once per interval. Two senders make the eight relays that
// cmd/fdload starts by default.
const relays = 4

// relayPeers is relay j's run of the sender's peers.
func (s *senderPlan) relayPeers(j int) []ident.ID {
	n := len(s.peers)
	return s.peers[j*n/relays : (j+1)*n/relays]
}

// plan is the generated input of one run: who sends for whom and when, and
// who dies. The same seed gives the same plan. Two senders — two generator
// goroutines, two connections — is as many as the reference box has cores.
type plan struct {
	senders [2]senderPlan
	killed  []ident.ID
}

// sender is one generator goroutine: its plan, its transport and its one
// connection to the monitor.
type sender struct {
	senderPlan
	idx     int
	tr      *tcpnet.Transport
	monitor ident.ID
}

func newPlan(seed int64, peers, kill int) *plan {
	rng := splitmix(seed)
	p := &plan{}
	type slot struct {
		id    ident.ID
		phase float64
	}
	var halves [2][]slot
	for id := 0; id < peers; id++ {
		h := int(rng.next() & 1)
		halves[h] = append(halves[h], slot{ident.ID(id), rng.float()})
	}
	for h := range halves {
		sort.Slice(halves[h], func(i, j int) bool { return halves[h][i].phase < halves[h][j].phase })
		for _, s := range halves[h] {
			p.senders[h].peers = append(p.senders[h].peers, s.id)
			p.senders[h].phase = append(p.senders[h].phase, s.phase)
		}
		// The relays of both senders take turns around the interval, each
		// somewhere in the first half of its own slot: bursts do not pile
		// up by chance of the seed, they run into each other as the
		// interval shrinks.
		for j := range p.senders[h].burstAt {
			slot := float64(j*len(p.senders) + h)
			p.senders[h].burstAt[j] = (slot + rng.float()/2) / float64(relays*len(p.senders))
		}
	}
	picked := map[ident.ID]bool{}
	for len(p.killed) < kill {
		id := ident.ID(rng.next() % uint64(peers))
		if !picked[id] {
			picked[id] = true
			p.killed = append(p.killed, id)
		}
	}
	ident.SortIDs(p.killed)
	return p
}

// tick is the pacing granularity: a paced heartbeat is due at the first
// tick at or after its exact time.
const tick = time.Millisecond

// schedule lays out one sender's heartbeats for a step of length dur at one
// heartbeat per peer per interval, due times counted from the step's start:
// paced (each peer at its own phase, on the tick grid) or burst (each relay's
// whole slice due at one instant once per interval: the time the generator
// takes to emit it is generator lateness). dead peers send nothing from
// deadFrom on.
func (s *sender) schedule(dur, interval time.Duration, burst bool, dead map[ident.ID]bool, deadFrom time.Duration) []record {
	recs := make([]record, 0, (int(dur/interval)+1)*len(s.peers))
	add := func(id ident.ID, due time.Duration) {
		if dead[id] && due >= deadFrom {
			return
		}
		recs = append(recs, record{peer: id, due: int64(due)})
	}
	for k := 0; ; k++ {
		if burst {
			for j, phase := range s.burstAt {
				at := time.Duration((phase + float64(k)) * float64(interval))
				if at >= dur {
					return recs
				}
				for _, id := range s.relayPeers(j) {
					add(id, at)
				}
			}
			continue
		}
		for i, id := range s.peers {
			at := time.Duration((s.phase[i] + float64(k)) * float64(interval))
			if at >= dur {
				return recs
			}
			add(id, (at+tick-1)/tick*tick)
		}
	}
}

// offer sends the scheduled heartbeats, each at its due time after start on
// clock. seq numbers a record so the monitor side can find it again. With
// traced set the time Send returned is kept too.
func (s *sender) offer(recs []record, start int64, seqBase uint64, clock func() int64, traced bool) {
	for i := range recs {
		rec := &recs[i]
		due, now := start+rec.due, clock()
		for due > now {
			sleep(time.Duration(due - now))
			now = clock()
		}
		rec.sendAt.Store(now)
		s.tr.Send(s.monitor, heartbeat.Message{From: rec.peer, Seq: seqBase + uint64(i)})
		if traced {
			rec.sendRet.Store(clock())
		}
	}
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep wakes through
// the runtime's poller, which rounds to whole milliseconds when the process
// is otherwise idle: half a millisecond late at the median on the reference
// box, against a tenth for the system call.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // the caller checks the clock, so an early wake-up (EINTR) only costs a retry
}

// flood sends heartbeats for the sender's live peers round-robin, untracked
// (Seq 0) and unpaced, until stop is set. It is a closed loop: before each
// batch it waits until there is room for it in the window of heartbeats in
// flight, so that nothing is dropped and no time goes into frames that are
// thrown away.
func (s *sender) flood(stop *atomic.Bool, dead map[ident.ID]bool, inFlight func() int64, sent *atomic.Int64) {
	batch := int64(min(floodBatch, len(s.peers))) // a batch must fit the send queue
	i := 0
	for !stop.Load() {
		if inFlight() > floodWindow-batch {
			sleep(200 * time.Microsecond)
			continue
		}
		n := int64(0)
		for ; n < batch; i = (i + 1) % len(s.peers) {
			if id := s.peers[i]; !dead[id] {
				s.tr.Send(s.monitor, heartbeat.Message{From: id})
				n++
			}
		}
		sent.Add(n)
	}
}

// floodWindow bounds the heartbeats in flight during the unpaced step: the
// shard queue length of cmd/fdload, so even one shard can hold them all.
// Large batches and a long nap keep the hand-offs between generator, writer,
// reader and worker few and large; with small ones the step ran in two
// regimes a factor of 1.5 apart, depending on how the goroutines happened to
// line up.
const (
	floodWindow = 4096
	floodBatch  = 1024
)

// together runs fn for every sender on its own goroutine and waits.
func together(senders []*sender, fn func(*sender)) {
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}
