package asyncfd_test

import (
	"testing"

	"asyncfd/internal/exp"
)

// The root bench suite regenerates every table and figure of the
// reconstructed evaluation (see README.md, "The experiments") in quick mode — one
// benchmark per experiment, so `go test -bench=. -benchmem` exercises the
// full harness. Use cmd/fdbench for the full-size sweeps.

func benchExperiment(b *testing.B, fn func(exp.Options) (*exp.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(exp.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchAll sweeps every table through the sharded engine at the given pool
// size and reports kernel throughput, so serial and parallel engine runs can
// be compared directly (`-bench 'AllTables'`).
func benchAll(b *testing.B, parallel int) {
	b.Helper()
	b.ReportAllocs()
	var events, runs int64
	for i := 0; i < b.N; i++ {
		stats := &exp.EngineStats{}
		results, err := exp.RunResults(exp.Experiments(), exp.Options{Quick: true, Seed: int64(i + 1), Parallel: parallel, Stats: stats})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no tables")
		}
		events += stats.Events.Load()
		runs += stats.Runs.Load()
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
		b.ReportMetric(float64(runs)/secs, "runs/sec")
	}
}

// BenchmarkAllTablesSerial — the full quick-mode sweep on one worker.
func BenchmarkAllTablesSerial(b *testing.B) { benchAll(b, 1) }

// BenchmarkAllTablesParallel — the same sweep on a worker per CPU; output is
// byte-identical, only wall-clock and throughput change.
func BenchmarkAllTablesParallel(b *testing.B) { benchAll(b, -1) }

// BenchmarkE1DetectionVsN — Table 1: detection time vs n, all detectors.
func BenchmarkE1DetectionVsN(b *testing.B) { benchExperiment(b, exp.E1DetectionVsN) }

// BenchmarkE2DetectionVsF — Figure 1: detection/accuracy vs f (quorum n−f).
func BenchmarkE2DetectionVsF(b *testing.B) { benchExperiment(b, exp.E2DetectionVsF) }

// BenchmarkE3Disturbance — Figure 2: false suspicions around a slowdown.
func BenchmarkE3Disturbance(b *testing.B) { benchExperiment(b, exp.E3Disturbance) }

// BenchmarkE4QoS — Table 2: QoS under delay-distribution sweep.
func BenchmarkE4QoS(b *testing.B) { benchExperiment(b, exp.E4QoS) }

// BenchmarkE5MessageCost — Figure 3: message/byte cost vs n.
func BenchmarkE5MessageCost(b *testing.B) { benchExperiment(b, exp.E5MessageCost) }

// BenchmarkE6MPSensitivity — Table 3: sensitivity to the MP assumption.
func BenchmarkE6MPSensitivity(b *testing.B) { benchExperiment(b, exp.E6MPSensitivity) }

// BenchmarkE7Consensus — Figure 4: consensus latency over each detector.
func BenchmarkE7Consensus(b *testing.B) { benchExperiment(b, exp.E7Consensus) }

// BenchmarkE8Propagation — Table 4: suspicion propagation spread vs n.
func BenchmarkE8Propagation(b *testing.B) { benchExperiment(b, exp.E8Propagation) }

// BenchmarkA1TagsAblation — ablation: counter-tag recency guards on/off.
func BenchmarkA1TagsAblation(b *testing.B) { benchExperiment(b, exp.A1TagsAblation) }

// BenchmarkA2WindowAblation — ablation: response collection window sweep.
func BenchmarkA2WindowAblation(b *testing.B) { benchExperiment(b, exp.A2WindowAblation) }

// BenchmarkX1DensityExt — extension figure: detection time vs range density.
func BenchmarkX1DensityExt(b *testing.B) { benchExperiment(b, exp.X1DensityExt) }

// BenchmarkX2MobilityExt — extension figure: false suspicions during a move.
func BenchmarkX2MobilityExt(b *testing.B) { benchExperiment(b, exp.X2MobilityExt) }
