// Comparison: the same crash scenario on the same simulated network, judged
// across all four detector implementations — the paper's time-free
// query–response detector against the fixed-timeout heartbeat, φ-accrual and
// Chen NFD-E baselines. The time-free detector needs no timing assumption
// and detects within roughly one query period.
package main

import (
	"fmt"
	"os"
	"time"

	"asyncfd/internal/exp"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "comparison:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n       = 10
		f       = 3
		crashAt = 10400 * time.Millisecond
		horizon = 30 * time.Second
	)
	crash := ident.ID(n - 1)

	fmt.Printf("scenario: n=%d f=%d, %v crashes at %v, exponential delays (~1ms)\n\n", n, f, crash, crashAt)
	fmt.Printf("%-12s  %-10s  %-10s  %-10s\n", "detector", "avg", "min", "max")

	for _, kind := range exp.AllKinds() {
		c, err := exp.NewCluster(exp.ClusterConfig{
			Kind: kind, N: n, F: f, Seed: 42,
			Delay: netsim.Exponential{Min: 500 * time.Microsecond, Mean: 700 * time.Microsecond, Cap: 50 * time.Millisecond},
		})
		if err != nil {
			return err
		}
		truth := c.Apply(faults.Schedule{}.CrashAt(crash, crashAt))
		c.RunUntil(horizon)

		observers := c.Members.Clone()
		observers.Remove(crash)
		d := qos.NewDetectionTimes(truth, crash, observers)
		qos.Fold(c.Log, d)
		det := d.Result()
		fmt.Printf("%-12s  %-10v  %-10v  %-10v\n",
			kind, det.Avg.Round(time.Millisecond), det.Min.Round(time.Millisecond), det.Max.Round(time.Millisecond))
	}

	fmt.Println("\nThe heartbeat detector lands in its [Θ−Δ, Θ] = [1s, 2s] band; the time-free")
	fmt.Println("detector detects within about one query period without any timeout to tune.")
	return nil
}
