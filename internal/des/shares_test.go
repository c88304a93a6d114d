package des_test

import (
	"os"
	"testing"

	"asyncfd/internal/des"
	"asyncfd/internal/exp"
	"asyncfd/internal/scenario"
)

// BenchmarkSetShares counts where the deadline tables' Sets go in the two
// simulated benchmark workloads of bench/workloads: the share that joins a
// table's run, an unlink and an append, against the share that goes to its
// side heap, a sift. Every cell whose detector keeps a table (monitor.Node:
// heartbeat, φ and NFD-E; the async detector arms none) runs at full size
// and seed 1, as the benchmark runs it, and reports its shares:
//
//	go test -run '^$' -bench SetShares -benchtime 1x ./internal/des
//
// The counts do not depend on the host: a cell's Sets are a function of the
// seed.
func BenchmarkSetShares(b *testing.B) {
	for _, name := range []string{"sim_dense_mesh", "sim_churn_family"} {
		data, err := os.ReadFile("../../bench/workloads/" + name + ".json")
		if err != nil {
			b.Fatal(err)
		}
		sc, err := scenario.Parse(data, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range sc.Cluster.Detectors {
			if kind == "async" {
				continue
			}
			for _, v := range sc.Variants {
				cell := *sc
				cell.Cluster.Detectors, cell.Variants = []string{kind}, []scenario.Variant{v}
				key := name + "/" + kind
				if v.Name != "" {
					key += "/" + v.Name
				}
				b.Run(key, func(b *testing.B) {
					var tally [2]int64
					des.CountSets(&tally)
					defer des.CountSets(nil)
					for i := 0; i < b.N; i++ {
						if _, err := exp.ScenarioTable(&cell, exp.Options{Seed: 1, Parallel: 1}); err != nil {
							b.Fatal(err)
						}
					}
					sets := float64(tally[0] + tally[1])
					b.ReportMetric(sets/float64(b.N), "sets/op")
					b.ReportMetric(100*float64(tally[0])/sets, "%run")
				})
			}
		}
	}
}
