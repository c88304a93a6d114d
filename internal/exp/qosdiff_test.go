package exp

// qosdiff_test.go pins trace determinism across worker counts: real scenario
// clusters (crash-recovery, partition/heal, transient disturbance) are
// recorded under the shared runJobs pool at Parallel 1 and 8, and the
// recordings must be byte-identical. What the judge makes of such traces is
// held to the legacy reference in internal/qos (scenario_test.go).

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
	"asyncfd/internal/trace"
)

// qosRecording is one scenario's recorded run: the raw trace plus the
// ground truth and the instants the interval metrics are judged against.
type qosRecording struct {
	name    string
	events  []trace.Event
	truth   *qos.GroundTruth
	members ident.Set
	victim  ident.ID
	horizon time.Duration
	// windowFrom/windowTo bound the scenario's storm window; windowTo is
	// also the Reconvergence origin.
	windowFrom, windowTo time.Duration
}

// qosScenarioJobs builds the three recorded scenarios as runJobs jobs, so a
// recording pass exercises the same worker pool as a real experiment.
func qosScenarioJobs() []func() (qosRecording, error) {
	// R1-style: crash at 10s, recover at 20s with fresh state, crash again
	// at 35s. Two truth intervals → exercises RedetectionTimes k=0 and k=1
	// and TrustRestorationTimes k=0.
	r1 := func() (qosRecording, error) {
		const (
			crash1    = 10 * time.Second
			recoverAt = 20 * time.Second
			crash2    = 35 * time.Second
			horizon   = 50 * time.Second
		)
		n, f := 6, 2
		victim := ident.ID(n - 1)
		c, err := NewCluster(ClusterConfig{
			Kind: KindAsync, N: n, F: f, Seed: 11, Delay: defaultDelay(),
		})
		if err != nil {
			return qosRecording{}, fmt.Errorf("r1 cluster: %w", err)
		}
		truth := c.Apply(faults.Schedule{}.
			CrashAt(victim, crash1).
			RecoverAt(victim, recoverAt, true).
			CrashAt(victim, crash2))
		c.RunUntil(horizon)
		return qosRecording{
			name: "r1-crash-recovery", events: c.Log.Events(), truth: truth,
			members: c.Members, victim: victim, horizon: horizon,
			windowFrom: recoverAt, windowTo: crash2,
		}, nil
	}
	// R2-style: a one-process minority island cut off during [15s,30s),
	// then healed. Empty crash truth for the victim → every suspicion is a
	// mistake; exercises Reconvergence and MistakeStorm on a storm-heavy
	// trace.
	r2 := func() (qosRecording, error) {
		const (
			splitAt = 15 * time.Second
			healAt  = 30 * time.Second
			horizon = 60 * time.Second
		)
		n, f := 6, 2
		victim := ident.ID(n - 1)
		c, err := NewCluster(ClusterConfig{
			Kind: KindAsync, N: n, F: f, Seed: 23, Delay: defaultDelay(),
			Rebroadcast: 2 * time.Second,
		})
		if err != nil {
			return qosRecording{}, fmt.Errorf("r2 cluster: %w", err)
		}
		truth := c.Apply(faults.Schedule{}.
			PartitionAt(splitAt, []ident.ID{victim}).
			HealAt(healAt))
		c.RunUntil(horizon)
		return qosRecording{
			name: "r2-partition-heal", events: c.Log.Events(), truth: truth,
			members: c.Members, victim: victim, horizon: horizon,
			windowFrom: splitAt, windowTo: healAt,
		}, nil
	}
	// E3-style: nobody crashes, one process is transiently slowed ×3000 —
	// the trace is pure false suspicions judged against an empty truth.
	e3 := func() (qosRecording, error) {
		const (
			start   = 30 * time.Second
			end     = 40 * time.Second
			horizon = 60 * time.Second
		)
		n, f := 8, 2
		victim := ident.ID(3)
		c, err := NewCluster(ClusterConfig{
			Kind: KindPhi, N: n, F: f, Seed: 37,
			Delay: netsim.Disturbance{
				Base:   defaultDelay(),
				Nodes:  ident.SetOf(victim),
				Start:  start,
				End:    end,
				Factor: 3000,
			},
		})
		if err != nil {
			return qosRecording{}, fmt.Errorf("e3 cluster: %w", err)
		}
		c.RunUntil(horizon)
		return qosRecording{
			name: "e3-disturbance", events: c.Log.Events(), truth: &qos.GroundTruth{},
			members: c.Members, victim: victim, horizon: horizon,
			windowFrom: start, windowTo: end,
		}, nil
	}
	return []func() (qosRecording, error){r1, r2, e3}
}

// recordScenarios runs the scenario jobs under opts's worker pool.
func recordScenarios(t *testing.T, opts Options) []qosRecording {
	t.Helper()
	recs, err := runJobs(opts, qosScenarioJobs())
	if err != nil {
		t.Fatalf("recording scenarios: %v", err)
	}
	for _, rec := range recs {
		if len(rec.events) == 0 {
			t.Fatalf("%s: recorded an empty trace; scenario exercises nothing", rec.name)
		}
	}
	return recs
}

// TestQoSRecordingsIdenticalAcrossParallelism proves the recorded traces —
// and therefore every metric derived from them — are byte-identical whether
// the scenario jobs run serially or on an 8-worker pool.
func TestQoSRecordingsIdenticalAcrossParallelism(t *testing.T) {
	serial := recordScenarios(t, Options{Quick: true, Parallel: 1})
	pooled := recordScenarios(t, Options{Quick: true, Parallel: 8})
	if len(serial) != len(pooled) {
		t.Fatalf("recording counts differ: %d vs %d", len(serial), len(pooled))
	}
	for i := range serial {
		s, p := serial[i], pooled[i]
		if s.name != p.name {
			t.Fatalf("recording %d: name %q vs %q", i, s.name, p.name)
		}
		if !reflect.DeepEqual(s.events, p.events) {
			t.Errorf("%s: trace differs between parallel 1 and 8 (%d vs %d events)",
				s.name, len(s.events), len(p.events))
		}
		sIvs := s.truth.Intervals(s.victim)
		pIvs := p.truth.Intervals(p.victim)
		if !reflect.DeepEqual(sIvs, pIvs) {
			t.Errorf("%s: ground truth differs between parallel 1 and 8: %v vs %v",
				s.name, sIvs, pIvs)
		}
	}
}
