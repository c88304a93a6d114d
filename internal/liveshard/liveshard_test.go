package liveshard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/trace"
)

func hbEstimator(timeout time.Duration) func(ident.ID, time.Duration) PeerEstimator {
	return func(_ ident.ID, now time.Duration) PeerEstimator {
		return heartbeat.NewEstimator(timeout, now)
	}
}

func TestNewRequiresEstimator(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing NewEstimator accepted")
	}
}

func TestShardPartitioning(t *testing.T) {
	s, err := New(Config{Shards: 16, NewEstimator: hbEstimator(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Every peer maps to exactly one shard, and dense sequential IDs
	// spread across all 16 workers (the Fibonacci hash must not clump).
	seen := make(map[int]int)
	for id := ident.ID(0); id < 4096; id++ {
		sh := s.shardOf(id)
		if sh != s.shardOf(id) {
			t.Fatalf("unstable shard assignment for %v", id)
		}
		seen[sh.idx]++
	}
	if len(seen) != 16 {
		t.Fatalf("4096 dense IDs landed on %d of 16 shards", len(seen))
	}
	for idx, count := range seen {
		if count < 64 || count > 1024 {
			t.Errorf("shard %d holds %d of 4096 peers; distribution badly skewed", idx, count)
		}
	}
}

// TestStartPrimesEachEstimatorAtItsOwnConstruction: an estimator's priming
// time is the clock read when it is built, however long the ones before it
// took — primed with one reading for all, the last of 50 slow constructions
// was born ~100 ms old, and a short-fused rule suspected it on the first scan
// (bench/README.md Finding 7). Calls stay one at a time and are all made by
// the time Start returns: a NewEstimator may collect what it builds, unlocked.
func TestStartPrimesEachEstimatorAtItsOwnConstruction(t *testing.T) {
	const peers, build = 50, 2 * time.Millisecond
	var svc *Service
	var built []ident.ID // unlocked on purpose: -race checks the calls are ordered
	var oldest time.Duration
	svc, err := New(Config{
		Shards: 4,
		NewEstimator: func(id ident.ID, now time.Duration) PeerEstimator {
			oldest = max(oldest, svc.Now()-now)
			built = append(built, id)
			time.Sleep(build)
			return heartbeat.NewEstimator(time.Second, now)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for id := ident.ID(0); id < peers; id++ {
		svc.AddPeers(id)
	}
	svc.Start()
	if len(built) != peers {
		t.Fatalf("Start returned with %d of %d estimators built", len(built), peers)
	}
	if oldest >= build {
		t.Errorf("an estimator was primed %v before it was built, want under %v", oldest, build)
	}
}

// TestSuspicionEndToEnd: silent peers get suspected, resumed heartbeats
// restore trust, transitions reach the sink, which is read after Close.
func TestSuspicionEndToEnd(t *testing.T) {
	log := &trace.Log{}
	s, err := New(Config{
		Self:         99,
		Shards:       4,
		ScanInterval: 2 * time.Millisecond,
		NewEstimator: hbEstimator(30 * time.Millisecond),
		Sink:         log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.AddPeers(0, 1, 2)
	s.Start()

	// Feed peers 0 and 1; starve peer 2.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.Observe(0)
				s.Observe(1)
			case <-stop:
				return
			}
		}
	}()

	waitFor(t, 5*time.Second, func() bool { return s.IsSuspected(2) })
	if s.IsSuspected(0) || s.IsSuspected(1) {
		t.Errorf("live peers wrongly suspected: %v", s.Suspects())
	}

	// Peer 2 comes back: trust must be restored.
	resurrect := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.Observe(2)
			case <-resurrect:
				return
			}
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return !s.IsSuspected(2) })
	close(resurrect)
	close(stop)
	wg.Wait()
	s.Close()

	// The sink saw both transitions with the monitor's identity.
	events := log.Events()
	var sawSuspect, sawTrust bool
	for _, e := range events {
		if e.Observer != 99 || e.Subject != 2 {
			continue
		}
		if e.Suspected {
			sawSuspect = true
		} else if sawSuspect {
			sawTrust = true
		}
	}
	if !sawSuspect || !sawTrust {
		t.Errorf("sink missed transitions for peer 2: %v", events)
	}
	if st := s.Stats(); st.Processed == 0 || st.Scans == 0 {
		t.Errorf("stats not accounted: %+v", st)
	}
}

// recordingEstimator captures the observation times a worker feeds it.
type recordingEstimator struct {
	mu  sync.Mutex
	ats []time.Duration
}

func (r *recordingEstimator) Observe(at time.Duration) {
	r.mu.Lock()
	r.ats = append(r.ats, at)
	r.mu.Unlock()
}
func (r *recordingEstimator) Suspected(time.Duration) bool { return false }
func (r *recordingEstimator) seen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ats)
}

// TestOverloadDropsOldest: with workers not yet running, a queue of
// capacity Q offered N>Q events keeps the NEWEST Q and counts the drops.
func TestOverloadDropsOldest(t *testing.T) {
	rec := &recordingEstimator{}
	s, err := New(Config{
		Shards:   1,
		QueueLen: 4,
		NewEstimator: func(ident.ID, time.Duration) PeerEstimator {
			return rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddPeers(0)
	// Not started: the queue fills and overflows deterministically.
	for i := 0; i < 10; i++ {
		s.Observe(0)
	}
	st := s.Stats()
	if st.DroppedOldest != 6 || st.DroppedNewest != 0 {
		t.Fatalf("drops = %d oldest / %d newest, want 6/0", st.DroppedOldest, st.DroppedNewest)
	}
	if st.QueueLen != 4 {
		t.Fatalf("backlog = %d, want 4", st.QueueLen)
	}
	// Start the worker: exactly the 4 newest events survive to the
	// estimator, in order.
	s.Start()
	waitFor(t, 5*time.Second, func() bool { return rec.seen() == 4 })
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := 1; i < len(rec.ats); i++ {
		if rec.ats[i] < rec.ats[i-1] {
			t.Errorf("surviving events out of order: %v", rec.ats)
		}
	}
	s.Close()
	if got := s.Stats().Processed; got != 4 {
		t.Errorf("processed = %d, want 4", got)
	}
}

// stallingEstimator holds the worker inside its first Observe until gate
// closes, so whatever is offered meanwhile stays in the queue.
type stallingEstimator struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (e *stallingEstimator) Observe(time.Duration) {
	e.once.Do(func() {
		close(e.entered)
		<-e.gate
	})
}
func (e *stallingEstimator) Suspected(time.Duration) bool { return false }

// TestUnregisteredRefusedBeforeTheQueue: a burst of sightings of ids nobody
// registered, offered while the queue is full of a registered peer's, used
// to evict those sightings one for one (counted as DroppedOldest) and then
// vanish at the worker, counted nowhere. Observe now refuses them up front.
func TestUnregisteredRefusedBeforeTheQueue(t *testing.T) {
	const queue, burst = 4, 10
	est := &stallingEstimator{entered: make(chan struct{}), gate: make(chan struct{})}
	s, err := New(Config{
		Shards:       1,
		QueueLen:     queue,
		NewEstimator: func(ident.ID, time.Duration) PeerEstimator { return est },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddPeers(0)
	s.Start()
	s.Observe(0)
	<-est.entered // the worker is held; the queue is empty
	for i := 0; i < queue; i++ {
		s.Observe(0)
	}
	for id := ident.ID(100); id < 100+burst; id++ {
		s.Observe(id)
	}
	st := s.Stats()
	close(est.gate)
	s.Close()
	if st.DroppedOldest != 0 || st.DroppedNewest != 0 || st.QueueLen != queue {
		t.Errorf("registered sightings evicted: %d oldest / %d newest dropped, %d of %d queued",
			st.DroppedOldest, st.DroppedNewest, st.QueueLen, queue)
	}
	if st.Unregistered != burst {
		t.Errorf("Unregistered = %d, want %d", st.Unregistered, burst)
	}
}

// TestConcurrentObserve hammers Observe from many goroutines (run under
// -race in CI) while stats are read concurrently.
func TestConcurrentObserve(t *testing.T) {
	s, err := New(Config{
		Shards:       8,
		QueueLen:     64,
		ScanInterval: time.Millisecond,
		NewEstimator: hbEstimator(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	const peers = 128
	ids := make([]ident.ID, peers)
	for i := range ids {
		ids[i] = ident.ID(i)
	}
	s.AddPeers(ids...)
	s.Start()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Observe(ident.ID((g*251 + i) % peers))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			s.Close()
			st := s.Stats()
			if st.Processed+st.Dropped() != 8*2000-uint64(st.QueueLen) {
				t.Errorf("event accounting leak: %+v", st)
			}
			if st.Processed > 0 && st.IngestP99 == 0 {
				t.Errorf("latency histogram empty despite %d processed", st.Processed)
			}
			return
		default:
			_ = s.Stats()
			_ = s.Suspects()
			time.Sleep(time.Millisecond)
		}
	}
}

// TestDeliverPayloadKinds: the node.Handler entry recognizes the direct
// heartbeat by its own From field.
func TestDeliverPayloadKinds(t *testing.T) {
	if id, ok := heartbeatFrom(heartbeat.Message{From: 3}); !ok || id != 3 {
		t.Error("heartbeat.Message not recognized")
	}
	if _, ok := heartbeatFrom("garbage"); ok {
		t.Error("garbage payload recognized")
	}
}

// TestPhiEstimatorIntegration runs the φ-accrual estimator under the
// sharded service.
func TestPhiEstimatorIntegration(t *testing.T) {
	s, err := New(Config{
		Shards:       2,
		ScanInterval: 2 * time.Millisecond,
		NewEstimator: func(_ ident.ID, now time.Duration) PeerEstimator {
			e, err := phiaccrual.NewEstimator(phiaccrual.EstimatorConfig{
				Interval:  5 * time.Millisecond,
				Threshold: 4,
			}, now)
			if err != nil {
				panic(err)
			}
			return e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.AddPeers(0, 1)
	s.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.Observe(0)
			case <-stop:
				return
			}
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return s.IsSuspected(1) })
	if s.IsSuspected(0) {
		t.Error("heartbeating peer wrongly suspected by φ estimator")
	}
	close(stop)
	wg.Wait()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exactPhi wraps the φ estimator a worker owns and holds every scan's answer
// to the rule evaluated in full: Phi at the scan's instant against the
// threshold, latched until a sighting the estimator does not ignore. That is
// what decided before the estimator kept a horizon, so a scan that disagrees
// is a suspicion moved to another scan.
type exactPhi struct {
	inner     *phiaccrual.Estimator
	threshold float64

	mu                   sync.Mutex
	last                 time.Duration
	latched              bool
	stale, scans, wrongs int
}

func (x *exactPhi) Observe(at time.Duration) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if at < x.last {
		x.stale++
	} else {
		x.last, x.latched = at, false
	}
	x.inner.Observe(at)
}

func (x *exactPhi) Suspected(now time.Duration) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.latched = x.latched || x.inner.Phi(now) >= x.threshold
	got := x.inner.Suspected(now)
	x.scans++
	if got != x.latched {
		x.wrongs++
	}
	return got
}

// TestPhiOutOfOrderSightings: two producers racing on one peer hand the
// worker arrival times out of order. The stale ones are no sightings — they
// move neither the silence clock nor what the estimator derives from it —
// so the peer is suspected at the scan at which the full rule first says so.
func TestPhiOutOfOrderSightings(t *testing.T) {
	const interval, threshold = 5 * time.Millisecond, 4
	var peer *exactPhi
	s, err := New(Config{
		ScanInterval: time.Millisecond,
		NewEstimator: func(_ ident.ID, now time.Duration) PeerEstimator {
			e, err := phiaccrual.NewEstimator(phiaccrual.EstimatorConfig{Interval: interval, Threshold: threshold}, now)
			if err != nil {
				panic(err)
			}
			peer = &exactPhi{inner: e, threshold: threshold, last: now}
			return peer
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.AddPeers(0)
	s.Start()
	sh := s.shardOf(0)
	for i := 0; i < 40; i++ {
		now := s.Now()
		sh.in <- event{peer: 0, at: now, ingest: now}
		// The racing producer's sighting: stamped earlier, queued later.
		sh.in <- event{peer: 0, at: now - interval/2, ingest: now}
		time.Sleep(interval)
	}
	waitFor(t, 10*time.Second, func() bool { return s.IsSuspected(0) })
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if peer.stale < 40 || peer.scans == 0 || !peer.latched {
		t.Fatalf("%d stale sightings, %d scans, latched %v: scenario too weak", peer.stale, peer.scans, peer.latched)
	}
	if peer.wrongs != 0 {
		t.Errorf("%d of %d scans answered differently from the rule evaluated in full", peer.wrongs, peer.scans)
	}
}

// transitions holds a log a service's sink wrote to the sink's contract and
// returns it per subject: instants never decrease, every event is the
// service's, and a subject's events alternate, a suspicion first, so none
// is lost or doubled.
func transitions(t *testing.T, log *trace.Log, self ident.ID) map[ident.ID][]trace.Event {
	t.Helper()
	per := map[ident.ID][]trace.Event{}
	var last time.Duration
	log.Each(func(e trace.Event) bool {
		if e.At < last || e.Observer != self {
			t.Fatalf("event %v after one at %v, or not observed by %v", e, last, self)
		}
		last = e.At
		evs := per[e.Subject]
		if e.Suspected != (len(evs)%2 == 0) {
			t.Fatalf("%v follows %d events of %v: transitions lost or doubled", e, len(evs), e.Subject)
		}
		per[e.Subject] = append(evs, e)
		return true
	})
	return per
}

// silenceEstimator suspects its peer from the first scan after the test
// sets silent until the peer is next sighted, and never again.
type silenceEstimator struct {
	silent  *atomic.Bool
	sighted bool // the worker's own
}

func (e *silenceEstimator) Observe(time.Duration)        { e.sighted = true }
func (e *silenceEstimator) Suspected(time.Duration) bool { return e.silent.Load() && !e.sighted }

// TestMassTransitionsLogInOrder: eight workers suspect all their peers at
// one scan, then trust them all again as one burst of sightings lands, each
// worker emitting to one unlocked trace.Log. Under -race, the sink is called
// one call at a time; the log holds every suspicion, then every trust, in
// time order, one event per transition.
func TestMassTransitionsLogInOrder(t *testing.T) {
	const peers = 1024
	var silent atomic.Bool
	log := &trace.Log{}
	s, err := New(Config{
		Self:         peers,
		Shards:       8,
		QueueLen:     peers,
		ScanInterval: time.Millisecond,
		NewEstimator: func(ident.ID, time.Duration) PeerEstimator { return &silenceEstimator{silent: &silent} },
		Sink:         log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]ident.ID, peers)
	for i := range ids {
		ids[i] = ident.ID(i)
	}
	s.AddPeers(ids...)
	s.Start()
	silent.Store(true)
	waitFor(t, 10*time.Second, func() bool { return s.Suspects().Len() == peers })
	for _, id := range ids {
		s.Observe(id)
	}
	waitFor(t, 10*time.Second, func() bool { return s.Suspects().Len() == 0 })
	s.Close()

	per := transitions(t, log, peers)
	if len(per) != peers || log.Len() != 2*peers {
		t.Fatalf("%d events about %d peers, want one suspicion and one trust of each of %d", log.Len(), len(per), peers)
	}
	for i, e := range log.Events() {
		if e.Suspected != (i < peers) {
			t.Fatalf("event %d is %v: a trust before the last suspicion, or a suspicion after the first trust", i, e)
		}
	}
}

// spinEstimator is a heartbeat estimator whose Observe takes a couple of
// microseconds more, so that producers on every core outrun the workers.
type spinEstimator struct{ *heartbeat.Estimator }

func (e spinEstimator) Observe(at time.Duration) {
	for t0 := time.Now(); time.Since(t0) < 2*time.Microsecond; {
	}
	e.Estimator.Observe(at)
}

// TestOverloadDetectsSilentCohort: four producers offer sightings of 48
// live peers, and of ids nobody registered, far faster than four workers
// with queues of 8 fold them, while 16 registered peers stay silent. Under
// that sustained drop-oldest overload every silent peer is suspected within
// 500 ms past its timeout, no queue holds more than its bound, every
// unregistered sighting is counted as one, every registered one is folded
// or counted as dropped once the producers stop and the queues drain, and
// the log stays in time order.
func TestOverloadDetectsSilentCohort(t *testing.T) {
	const (
		shards, queue  = 4, 8
		live, cohort   = 48, 16
		timeout, bound = 50 * time.Millisecond, 500 * time.Millisecond
	)
	log := &trace.Log{}
	s, err := New(Config{
		Self:         1 << 10,
		Shards:       shards,
		QueueLen:     queue,
		ScanInterval: 2 * time.Millisecond,
		NewEstimator: func(_ ident.ID, now time.Duration) PeerEstimator {
			return spinEstimator{heartbeat.NewEstimator(timeout, now)}
		},
		Sink: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := ident.ID(0); id < live+cohort; id++ {
		s.AddPeers(id)
	}
	s.Start()
	started := s.Now() // every estimator was primed by now

	var offered, unregistered atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if id := ident.ID(i % (live + 8)); id < live {
					s.Observe(id)
					offered.Add(1)
				} else {
					s.Observe(1000 + id)
					unregistered.Add(1)
				}
			}
		}(g)
	}
	detected := func() bool {
		for id := ident.ID(live); id < live+cohort; id++ {
			if !s.IsSuspected(id) {
				return false
			}
		}
		return true
	}
	backlog := 0
	waitFor(t, 10*time.Second, func() bool {
		backlog = max(backlog, s.Stats().QueueLen)
		return detected()
	})
	close(stop)
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool { return s.Stats().QueueLen == 0 })
	s.Close()

	st := s.Stats()
	if st.DroppedOldest == 0 {
		t.Fatalf("no queued sighting was evicted (%+v): the overload is too weak", st)
	}
	if backlog > shards*queue {
		t.Errorf("%d sightings queued, bound %d", backlog, shards*queue)
	}
	if st.Unregistered != unregistered.Load() {
		t.Errorf("Unregistered = %d, %d offered", st.Unregistered, unregistered.Load())
	}
	if got := st.Processed + st.DroppedOldest + st.DroppedNewest; got != offered.Load() {
		t.Errorf("processed %d + dropped %d oldest + %d newest = %d, %d registered sightings offered",
			st.Processed, st.DroppedOldest, st.DroppedNewest, got, offered.Load())
	}
	per := transitions(t, log, 1<<10)
	for id := ident.ID(live); id < live+cohort; id++ {
		if evs := per[id]; len(evs) == 0 || evs[0].At > started+timeout+bound {
			t.Errorf("silent %v: transitions %v, want a suspicion by %v", id, evs, started+timeout+bound)
		}
	}
}
