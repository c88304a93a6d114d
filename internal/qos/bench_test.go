package qos

import (
	"math/rand"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// churnLog builds a time-ordered log of the given number of transitions,
// one per millisecond, over the 992 pairs of 32 processes, each pair
// alternating suspicion and trust. At 165 152 events it is the size of one
// async replicate of the churn family; a shorter log is its prefix.
func churnLog(events int) *trace.Log {
	const n = 32
	r := rand.New(rand.NewSource(1))
	l := &trace.Log{}
	suspected := make(map[[2]ident.ID]bool)
	for i := 0; i < events; i++ {
		obs := ident.ID(r.Intn(n))
		subj := ident.ID((int(obs) + 1 + r.Intn(n-1)) % n)
		p := [2]ident.ID{obs, subj}
		suspected[p] = !suspected[p]
		l.OnSuspicion(time.Duration(i)*time.Millisecond, obs, subj, suspected[p])
	}
	return l
}

// churnTruth is the crash-burst variant's ground truth: p28–p30 crash
// 300 ms apart from 10 s, p28 recovers at 18 s and crashes again at 28 s,
// p29 recovers at 20 s, and p31 crashes for good at 38 s.
func churnTruth() *GroundTruth {
	var g GroundTruth
	g.Crash(28, 10*time.Second)
	g.Crash(29, 10300*time.Millisecond)
	g.Crash(30, 10600*time.Millisecond)
	g.Recover(28, 18*time.Second)
	g.Recover(29, 20*time.Second)
	g.Crash(28, 28*time.Second)
	g.Crash(31, 38*time.Second)
	return &g
}

// benchSink keeps BenchmarkJudgeFrom's results alive.
var benchSink struct {
	storm, settle int64
	clean         bool
	det           [3]DetectionStats
}

// BenchmarkJudgeFrom: one op builds the Judge of churnLog(165152) and asks
// it the churn family's five metrics (bench/workloads/sim_churn_family.json)
// one call at a time: a storm over [8 s, 36 s), reconvergence after 36 s,
// detection of p31, re-detection of p28's second downtime and trust
// restoration after its first, over observers p0–p23.
func BenchmarkJudgeFrom(b *testing.B) {
	l, truth := churnLog(165152), churnTruth()
	members, observers := ident.FullSet(32), ident.FullSet(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := JudgeFrom(l)
		benchSink.storm = int64(j.MistakeStorm(truth, members, 8*time.Second, 36*time.Second))
		settle, clean := j.Reconvergence(truth, members, 36*time.Second)
		benchSink.settle, benchSink.clean = int64(settle), clean
		benchSink.det[0] = j.DetectionTimes(truth, 31, observers)
		benchSink.det[1] = j.RedetectionTimes(truth, 28, observers, 1)
		benchSink.det[2] = j.TrustRestorationTimes(truth, 28, observers, 0)
	}
}
