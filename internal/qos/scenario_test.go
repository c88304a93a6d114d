package qos_test

// scenario_test.go holds the fold to the legacy sort+rescan reference on
// traces recorded from real simulated clusters (crash-recovery,
// partition/heal, transient disturbance), where judge_test.go uses random
// ones. It is an external test because the clusters come from internal/exp,
// which imports this package.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"asyncfd/internal/exp"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
	"asyncfd/internal/trace"
)

// recording is one scenario's recorded run: the trace plus the ground truth
// and the instants the interval metrics are judged against.
type recording struct {
	name    string
	log     *trace.Log
	truth   *qos.GroundTruth
	members ident.Set
	victim  ident.ID
	horizon time.Duration
	// windowFrom/windowTo bound the scenario's storm window; windowTo is
	// also the Reconvergence origin.
	windowFrom, windowTo time.Duration
}

// record builds the cluster, applies the schedule and runs it to rec.horizon.
func record(t *testing.T, rec recording, cfg exp.ClusterConfig, schedule faults.Schedule) recording {
	t.Helper()
	c, err := exp.NewCluster(cfg)
	if err != nil {
		t.Fatalf("%s cluster: %v", rec.name, err)
	}
	rec.truth = c.Apply(schedule)
	c.RunUntil(rec.horizon)
	if c.Log.Len() == 0 {
		t.Fatalf("%s: recorded an empty trace; scenario exercises nothing", rec.name)
	}
	rec.log, rec.members = c.Log, c.Members
	return rec
}

func recordScenarios(t *testing.T) []recording {
	t.Helper()
	delay := netsim.Exponential{Min: 500 * time.Microsecond, Mean: 700 * time.Microsecond, Cap: 100 * time.Millisecond}
	const (
		crash1    = 10 * time.Second
		recoverAt = 20 * time.Second
		crash2    = 35 * time.Second
		splitAt   = 15 * time.Second
		healAt    = 30 * time.Second
		slowFrom  = 30 * time.Second
		slowTo    = 40 * time.Second
	)
	return []recording{
		// R1-style: crash, recover with fresh state, crash again. Two truth
		// intervals → exercises RedetectionTimes k=0 and k=1 and
		// TrustRestorationTimes k=0.
		record(t, recording{
			name: "r1-crash-recovery", victim: 5, horizon: 50 * time.Second,
			windowFrom: recoverAt, windowTo: crash2,
		}, exp.ClusterConfig{
			Kind: exp.KindAsync, N: 6, F: 2, Seed: 11, Delay: delay,
		}, faults.Schedule{}.
			CrashAt(5, crash1).
			RecoverAt(5, recoverAt, true).
			CrashAt(5, crash2)),
		// R2-style: a one-process minority island cut off, then healed.
		// Nobody crashes → every suspicion is a mistake; exercises
		// Reconvergence and MistakeStorm on a storm-heavy trace.
		record(t, recording{
			name: "r2-partition-heal", victim: 5, horizon: 60 * time.Second,
			windowFrom: splitAt, windowTo: healAt,
		}, exp.ClusterConfig{
			Kind: exp.KindAsync, N: 6, F: 2, Seed: 23, Delay: delay,
			Rebroadcast: 2 * time.Second,
		}, faults.Schedule{}.
			PartitionAt(splitAt, []ident.ID{5}).
			HealAt(healAt)),
		// E3-style: nobody crashes, one process is transiently slowed ×3000 —
		// the trace is pure false suspicions judged against an empty truth.
		record(t, recording{
			name: "e3-disturbance", victim: 3, horizon: 60 * time.Second,
			windowFrom: slowFrom, windowTo: slowTo,
		}, exp.ClusterConfig{
			Kind: exp.KindPhi, N: 8, F: 2, Seed: 37,
			Delay: netsim.Disturbance{
				Base: delay, Nodes: ident.SetOf(3), Start: slowFrom, End: slowTo, Factor: 3000,
			},
		}, faults.Schedule{}),
	}
}

// TestQoSJudgeDifferentialOnScenarioTraces proves every metric identical
// between the legacy reference and one fold of them all on each recorded
// scenario trace.
func TestQoSJudgeDifferentialOnScenarioTraces(t *testing.T) {
	for _, rec := range recordScenarios(t) {
		rec := rec
		t.Run(rec.name, func(t *testing.T) {
			log, truth, members, victim := rec.log, rec.truth, rec.members, rec.victim
			observers := members.Clone()
			observers.Remove(victim)

			det := qos.NewDetectionTimes(truth, victim, observers)
			mist := qos.NewMistakes(truth, members, rec.horizon)
			pa := qos.NewQueryAccuracy(truth, members, rec.horizon)
			settle := qos.NewReconvergence(truth, members, rec.windowTo)
			storm := qos.NewMistakeStorm(truth, members, rec.windowFrom, rec.windowTo)
			folded := []qos.Metric{det, mist, pa, settle, storm}
			var redet, trust []*qos.Detection
			for k := 0; k <= 2; k++ {
				redet = append(redet, qos.NewRedetectionTimes(truth, victim, observers, k))
				trust = append(trust, qos.NewTrustRestorationTimes(truth, victim, observers, k))
				folded = append(folded, redet[k], trust[k])
			}
			qos.Fold(log, folded...)

			check := func(metric string, want, got any) {
				t.Helper()
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: fold %#v != legacy %#v", metric, got, want)
				}
			}
			check("DetectionTimes", qos.LegacyDetectionTimes(log, truth, victim, observers), det.Result())
			check("Mistakes", qos.LegacyMistakes(log, truth, members, rec.horizon), mist.Result())
			check("QueryAccuracy", qos.LegacyQueryAccuracy(log, truth, members, rec.horizon), pa.Result())
			for k := 0; k <= 2; k++ {
				check(fmt.Sprintf("RedetectionTimes(k=%d)", k),
					qos.LegacyRedetectionTimes(log, truth, victim, observers, k), redet[k].Result())
				check(fmt.Sprintf("TrustRestorationTimes(k=%d)", k),
					qos.LegacyTrustRestorationTimes(log, truth, victim, observers, k), trust[k].Result())
			}
			wantSettle, wantClean := qos.LegacyReconvergence(log, truth, members, rec.windowTo)
			gotSettle, gotClean := settle.Result()
			check("Reconvergence.settle", wantSettle, gotSettle)
			check("Reconvergence.clean", wantClean, gotClean)
			check("MistakeStorm",
				qos.LegacyMistakeStorm(log, truth, members, rec.windowFrom, rec.windowTo), storm.Result())
		})
	}
}
