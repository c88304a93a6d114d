package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/liveshard"
	"asyncfd/internal/qos"
	"asyncfd/internal/wire"
)

// liveSpec sizes one live workload: one monitor (tcpnet.Transport +
// liveshard.Service), two senders multiplexing the logical peers as
// cmd/fdload does, a ladder of five rates, then an unpaced step.
type liveSpec struct {
	peers     int
	estimator string // "heartbeat" or "phi"
	shards    int
	burst     bool // each relay emits its whole slice at one instant once per interval
	// intervals is the per-peer heartbeat interval of each ladder step. The
	// first step is the reference step: hb_latency_*, the kills and the
	// output checks belong to it.
	intervals []time.Duration
	kill      int
	step      time.Duration // length of one ladder step; 0 = an eighth of -seconds
	block     uint64        // heartbeats in one block of the unpaced step

	// wrapEstimator, when a test sets it, wraps each peer's estimator as the
	// service builds it.
	wrapEstimator func(ident.ID, liveshard.PeerEstimator) liveshard.PeerEstimator
}

// shardQueue is the length of a shard's ingest queue, cmd/fdload's: one
// relay's burst fits, the bursts of several relays at once do not.
const shardQueue = 4096

// sloP99 is the latency limit a ladder step must meet to count as
// sustained.
const sloP99 = 10 * time.Millisecond

func liveSpecOf(name string, smoke bool) (liveSpec, error) {
	var s liveSpec
	switch name {
	case "live_hot_paced":
		// 50k (reference) / 100k / 150k / 200k / 250k hb/s over 2048 peers.
		s = liveSpec{peers: 2048, estimator: "heartbeat", shards: 1, kill: 16, block: 250_000}
		for _, rate := range []int{50_000, 100_000, 150_000, 200_000, 250_000} {
			s.intervals = append(s.intervals, time.Duration(float64(s.peers)/float64(rate)*float64(time.Second)))
		}
	case "live_wide_burst":
		// 33k (reference) / 66k / 131k / 262k / 524k hb/s over 16384 peers.
		s = liveSpec{peers: 16384, estimator: "phi", shards: 2, burst: true, kill: 16, block: 200_000,
			intervals: []time.Duration{500 * time.Millisecond, 250 * time.Millisecond, 125 * time.Millisecond, 62500 * time.Microsecond, 31250 * time.Microsecond}}
	default:
		return s, fmt.Errorf("unknown live workload %q", name)
	}
	if smoke {
		// Same shape at a sixteenth of the peers; burst intervals shrink so
		// a short step still holds several bursts.
		s.peers /= 16
		s.kill = 4
		s.block = 500
		s.step = 250 * time.Millisecond
		if s.burst {
			for i := range s.intervals {
				s.intervals[i] /= 10
			}
		}
	}
	return s, nil
}

// runLive runs one live workload: repeated set-up, the five-step ladder with
// the kill cohort dying mid-reference-step, the unpaced step, then the
// verdict exactly as cmd/fdload computes it.
func runLive(name string, cfg runConfig) (*result, error) {
	spec, err := liveSpecOf(name, cfg.smoke)
	if err != nil {
		return nil, err
	}
	res := newResult(name, cfg.seed, cfg.trace)
	pl := newPlan(cfg.seed, spec.peers, spec.kill)

	var r *rig
	var setupS []float64
	for begin := time.Now(); !setupsDone(len(setupS), time.Since(begin), cfg.smoke); {
		if r != nil {
			r.close()
		}
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		if r, err = newRig(spec, pl); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.close()
	res.set("setup_s", median(setupS))
	res.set("liveshard.start_ms", r.startMS)
	res.set("tcpnet.dial_ms", r.dialMS)

	stepDur := spec.step
	if stepDur == 0 {
		stepDur = cfg.seconds / 8 // five steps; the rest is for the unpaced step
	}
	if spec.burst {
		// A whole number of the slowest interval, which every other interval
		// divides: each relay bursts equally often in a step, and the gap an
		// estimator sees across a step boundary is no longer than the
		// interval it was used to.
		slowest := spec.intervals[0]
		stepDur = max((stepDur+slowest/2)/slowest, 1) * slowest
	}
	lad := r.ladder(pl, stepDur, cfg.trace)

	// Unpaced step, for what the ladder left of the run's time. The traced
	// run floods twice, probes quiet then, half as long, probes timing, and
	// reports the ratio as the tracing overhead.
	flood := time.Duration(0)
	if !cfg.smoke && !cfg.trace {
		flood = cfg.seconds - time.Duration(len(spec.intervals))*stepDur
	}
	walls, cpus, err := r.saturate(floodBlocks, flood, spec.block, lad.dead)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		r.p.traced.Store(true)
		traced, _, err := r.saturate(floodBlocks/2, 0, spec.block, lad.dead)
		r.p.traced.Store(false)
		if err != nil {
			return nil, err
		}
		res.set("bench.trace_overhead", median(traced)/median(walls))
	}
	res.set("work_wall_s", median(walls))
	res.set("work_cpu_s", median(cpus))
	res.notef("unpaced step: %d blocks of %d heartbeats, wall %.3v s; saturated_hbps = block / work_wall_s = %.0f hb/s",
		len(walls), spec.block, walls, float64(spec.block)/median(walls))

	v := r.verdict(lad, pl)
	res.set("verdict_s", v.wall.Seconds())
	res.set("detect_p50_ms", median(v.detectMS))
	lad.report(res, r, v)
	if cfg.trace {
		traceLive(res, r, lad.refTraced, v.horizon)
		path, err := writeSpans(cfg.outDir, name, lad.spans)
		if err != nil {
			return nil, err
		}
		res.notef("trace: %d spans written to %s", len(lad.spans), path)
	}
	return res, nil
}

// ladderRun is what the five paced steps produced.
type ladderRun struct {
	steps  []*stepStats // the five, probes quiet
	spans  []span
	dead   map[ident.ID]bool // the kill cohort
	killAt time.Duration     // service clock; the cohort is silent from here on
	wall   time.Duration

	// Traced run only: the reference step offered once more, probes timing,
	// for the per-layer legs. It is in none of the ladder's metrics.
	refTraced *stepStats
}

// ladder runs the steps back to back, probes quiet. The kill cohort's last
// heartbeats are the ones due before the middle of the reference step. A
// traced run offers the reference step a second time right after the first,
// probes timing, so that the interval the estimators see does not jump.
func (r *rig) ladder(pl *plan, stepDur time.Duration, traced bool) *ladderRun {
	lad := &ladderRun{dead: map[ident.ID]bool{}}
	for _, id := range pl.killed {
		lad.dead[id] = true
	}
	for i, interval := range r.spec.intervals {
		deadFrom := time.Duration(0)
		if i == 0 {
			deadFrom = stepDur / 2
		}
		st := r.runStep(i, interval, stepDur, lad.dead, deadFrom, false, 0)
		if i == 0 {
			lad.killAt = st.start + deadFrom
		}
		lad.steps = append(lad.steps, st)
		lad.wall += st.wall
		if traced && i == 0 {
			lad.refTraced = r.runStep(len(r.spec.intervals), interval, stepDur, lad.dead, 0, true, maxSpans/4)
			lad.refTraced.sort()
			lad.spans, lad.refTraced.spans = lad.refTraced.spans, nil
		}
	}
	return lad
}

// verdictRun is the QoS verdict of a live run.
type verdictRun struct {
	wall     time.Duration // last heartbeat → verdict in hand
	horizon  time.Duration // service clock at close
	detectMS []float64     // one per detected cohort member
	missed   int
	mistakes qos.MistakeStats
}

// verdict closes the system and judges the trace with the calls cmd/fdload
// makes: JudgeFrom, DetectionTimes per killed peer, Mistakes over the
// members.
func (r *rig) verdict(lad *ladderRun, pl *plan) verdictRun {
	var v verdictRun
	start := time.Now()
	for _, s := range r.senders {
		s.tr.Close()
	}
	v.horizon = r.svc.Now()
	r.svc.Close()
	r.monitor.Close()
	truth := &qos.GroundTruth{}
	for _, id := range pl.killed {
		truth.Crash(id, lad.killAt)
	}
	judge := qos.JudgeFrom(r.log)
	observers := ident.SetOf(ident.ID(r.spec.peers))
	for _, id := range pl.killed {
		if ds := judge.DetectionTimes(truth, id, observers); ds.Count > 0 {
			v.detectMS = append(v.detectMS, qos.Millis(ds.Avg))
		} else {
			v.missed++
		}
	}
	v.mistakes = judge.Mistakes(truth, ident.FullSet(r.spec.peers), v.horizon)
	v.wall = time.Since(start)
	return v
}

// report prints the ladder, sets the metrics that come from it and checks
// the outputs: at the reference step every heartbeat folded, every killed
// peer detected, no live peer suspected.
func (lad *ladderRun) report(res *result, r *rig, v verdictRun) {
	spec := r.spec
	for _, st := range lad.steps {
		st.sort()
	}
	ref := lad.steps[0]
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	res.set("hb_latency_p50_ms", ms(quantile(ref.latency, 0.50)))
	res.set("hb_latency_p99_ms", ms(quantile(ref.latency, 0.99)))

	maxOK, voids := 0.0, 0
	var sum stepStats // the five steps' counts added up
	var late []int64
	for i, st := range lad.steps {
		sum.offered += st.offered
		sum.folded += st.folded
		sum.queueMax = max(sum.queueMax, st.queueMax)
		sum.senderDrops += st.senderDrops
		sum.dropOldest += st.dropOldest
		sum.dropNewest += st.dropNewest
		sum.frames += st.frames
		sum.writes += st.writes
		sum.scans += st.scans
		late = append(late, st.late...)
		state := "over"
		switch {
		case st.void():
			state = "void"
			voids++
		case st.ok():
			state = "ok"
			maxOK = max(maxOK, float64(spec.peers)/st.interval.Seconds())
		}
		mark := " "
		if i == 0 {
			mark = "*"
		}
		tq, tv := tailQuantile(st.latency)
		res.notef("step %d%s %7.0f hb/s  offered %d folded %d  latency p50 %.3f p99 %.3f p%g %.3f ms (%d samples)  late p99 %.3f ms  drops sender %d oldest %d newest %d  queue max %d grew %v  %s",
			i, mark, st.rate(), st.offered, st.folded, ms(quantile(st.latency, 0.5)), ms(quantile(st.latency, 0.99)), 100*tq, ms(tv),
			len(st.latency), ms(quantile(st.late, 0.99)), st.senderDrops, st.dropOldest, st.dropNewest, st.queueMax, st.queueGrew, state)
	}
	slices.Sort(late)
	offered, folded := sum.offered, sum.folded
	res.set("gen.offered_hbps", float64(offered)/lad.wall.Seconds())
	res.set("gen.late_p99_ms", ms(quantile(late, 0.99)))
	res.set("gen.void_steps", float64(voids))
	res.set("liveshard.max_ok_rate_hbps", maxOK)
	res.set("liveshard.queue_len_max", float64(sum.queueMax))
	res.set("liveshard.dropped_oldest", float64(sum.dropOldest))
	res.set("liveshard.dropped_newest", float64(sum.dropNewest))
	res.set("liveshard.useful_ratio", float64(folded)/float64(offered))
	res.set("liveshard.scans_per_s", float64(sum.scans)/lad.wall.Seconds())
	res.set("tcpnet.frames_dropped", float64(sum.senderDrops))
	res.set("tcpnet.writes_per_s", float64(sum.writes)/lad.wall.Seconds())
	if sum.writes > 0 {
		res.set("tcpnet.coalesce", float64(sum.frames)/float64(sum.writes))
	}
	res.set("trace.live_events", float64(r.log.Len()))

	// False suspicions: of a peer that was heartbeating, from the first step
	// on. The Mistakes call cannot see them: it pairs members with members,
	// and the one observer, the monitor, is not a member.
	falseAll, falseRef := 0, 0
	for _, ev := range r.log.Events() {
		if !ev.Suspected || ev.At < lad.steps[0].start || lad.dead[ev.Subject] && ev.At >= lad.killAt {
			continue
		}
		falseAll++
		if ev.At >= ref.start && ev.At < ref.start+ref.wall {
			falseRef++
		}
	}
	killed := len(v.detectMS) + v.missed
	res.notef("kills %d  detected %d  false suspicions %d, %d of them in the reference step  (qos.Mistakes: %d closed, %d open)",
		killed, len(v.detectMS), falseAll, falseRef, v.mistakes.Count, v.mistakes.Unresolved)
	res.set("failed_share", float64(offered-folded+v.missed+falseAll)/float64(offered+killed))

	// The JSON line counts the reference step only: the later steps load
	// the system up to its knee on purpose. When the generator itself ran
	// late there (the box stalled), the step is void: heartbeats offered in
	// a clump after the stall overflow queues sized for the schedule, and a
	// peer whose heartbeats came late was rightly suspected. What the step
	// lost is then reported, not failed; the kills still have to be found.
	res.attempted = ref.offered + killed
	res.failed = v.missed
	lost := ref.offered - ref.folded
	if ref.void() {
		res.notef("the generator ran late on the reference step (late p99 %.3f ms): the step is void, its latency says little about the system; %d heartbeats lost and %d false suspicions in it are not counted as failed",
			ms(quantile(ref.late, 0.99)), lost, falseRef)
	} else {
		res.failed += lost + falseRef
		if lost > 0 {
			res.problemf("%d of %d reference-step heartbeats never reached an estimator", lost, ref.offered)
		}
		if falseRef > 0 {
			res.problemf("%d false suspicions in the reference step", falseRef)
		}
	}
	if v.missed > 0 {
		res.problemf("%d of %d killed peers were not detected", v.missed, killed)
	}
	if n := r.p.untracked.Load(); n > 0 {
		res.notef("%d heartbeats had more than %d of one peer in flight and were not followed", n, ringSize)
	}
}

// traceLive reports the per-layer metrics only the traced run has: the
// per-heartbeat legs at the reference step, the estimators' inner calls, and
// a timed replay of the workload's own messages through the codec.
func traceLive(res *result, r *rig, ref *stepStats, horizon time.Duration) {
	res.set("tcpnet.send_call_ns_p50", float64(quantile(ref.sendCall, 0.5)))
	res.set("tcpnet.send_call_ns_p99", float64(quantile(ref.sendCall, 0.99)))
	res.set("tcpnet.transit_ms_p50", float64(quantile(ref.transit, 0.5))/1e6)
	res.set("tcpnet.transit_ms_p99", float64(quantile(ref.transit, 0.99))/1e6)
	res.set("liveshard.observe_call_ns_p50", float64(quantile(ref.observeCall, 0.5)))
	res.set("liveshard.observe_call_ns_p99", float64(quantile(ref.observeCall, 0.99)))
	res.set("liveshard.queue_wait_ms_p50", float64(quantile(ref.queueWait, 0.5))/1e6)
	res.set("liveshard.queue_wait_ms_p99", float64(quantile(ref.queueWait, 0.99))/1e6)

	var obsNS, obsN, susNS, susN, susCalls int64
	for _, e := range r.p.estimators {
		obsNS, obsN = obsNS+e.observeNS, obsN+e.observeN
		susNS, susN = susNS+e.suspectedNS, susN+e.suspectedN
		susCalls += e.suspectedCalls
	}
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	prefix := map[string]string{"heartbeat": "heartbeat", "phi": "phiaccrual"}[r.spec.estimator]
	res.set(prefix+".observe_ns", per(obsNS, obsN))
	res.set(prefix+".suspected_ns", per(susNS, susN))
	res.set("liveshard.suspected_calls_per_s", float64(susCalls)/horizon.Seconds())
	// Time inside PeerEstimator.Suspected, scaled from the timed calls to
	// all of them, over the workers' wall time: the part of a worker that
	// scanning keeps from folding. The scan loop's own iteration is not in
	// it.
	res.set("liveshard.scan_busy_share", per(susNS, susN)*float64(susCalls)/(horizon.Seconds()*1e9*float64(r.spec.shards)))

	// The shares of a reference-step heartbeat's life, from its legs.
	legs := []int64{sum(ref.late), sum(ref.sendCall) + sum(ref.transit), sum(ref.queueWait)}
	if total := legs[0] + legs[1] + legs[2]; total > 0 {
		res.notef("self-time shares of a reference-step heartbeat (%d followed):", len(ref.latency))
		for i, l := range []layer{layGen, layTcpnet, layLiveshard} {
			res.notef("  share %-13s %5.1f%%", l.String(), 100*float64(legs[i])/float64(total))
		}
	}

	// wire.*: replay the workload's own messages through the codec.
	n := min(len(ref.latency), 100_000)
	frames := make([][]byte, n)
	var buf []byte
	start := time.Now()
	for i := range frames {
		m := heartbeat.Message{From: ident.ID(i % r.spec.peers), Seq: seqOf(0, i&1, i)}
		buf, _ = wire.AppendEncode(buf[:0], m) // a heartbeat always encodes
		frames[i] = append([]byte(nil), buf...)
	}
	encNS := time.Since(start)
	bytes := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for _, f := range frames {
		bytes += len(f)
		if _, err := wire.Decode(f); err != nil {
			res.problemf("wire.Decode of an encoded heartbeat: %v", err)
		}
	}
	decNS := time.Since(start)
	runtime.ReadMemStats(&m1)
	res.set("wire.encode_ns", per(int64(encNS), int64(n)))
	res.set("wire.decode_ns", per(int64(decNS), int64(n)))
	res.set("wire.decode_allocs", per(int64(m1.Mallocs-m0.Mallocs), int64(n)))
	res.set("wire.bytes_per_msg", per(int64(bytes), int64(n)))
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}
