package des_test

import (
	"os"
	"testing"

	"asyncfd/internal/des"
	"asyncfd/internal/exp"
	"asyncfd/internal/scenario"
)

// BenchmarkSetShares counts how far the deadline tables' Sets walk in the
// two simulated benchmark workloads of bench/workloads. A Set links its slot
// at the tail or the head of its table's list at once, and anywhere else
// after walking back from the tail past every later key. Every cell whose
// detector keeps a table (monitor.Node: heartbeat, φ and NFD-E; the async
// detector arms none) runs at full size and seed 1, as the benchmark runs
// it, and reports the share of Sets that walk, the mean slots walked per
// Set and the longest walk:
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
					var sets, walks, walked, longest int
					des.CountSets(func(w int) {
						sets++
						walks += min(w, 1)
						walked += w
						longest = max(longest, w)
					})
					defer des.CountSets(nil)
					for i := 0; i < b.N; i++ {
						if _, err := exp.ScenarioTable(&cell, exp.Options{Seed: 1, Parallel: 1}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(sets)/float64(b.N), "sets/op")
					b.ReportMetric(100*float64(walks)/float64(sets), "%walk")
					b.ReportMetric(float64(walked)/float64(sets), "walked/set")
					b.ReportMetric(float64(longest), "longest")
				})
			}
		}
	}
}
