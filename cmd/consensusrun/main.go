// Command consensusrun solves one consensus instance over the time-free
// failure detector in a simulated cluster, optionally crashing the first
// coordinator, and prints the decision timeline.
//
// Usage:
//
//	consensusrun [-n 5] [-f 2] [-crash-coordinator] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"asyncfd/internal/consensus"
	"asyncfd/internal/exp"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensusrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("consensusrun", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of processes")
	f := fs.Int("f", 2, "crash bound (needs 2f < n)")
	crashCoord := fs.Bool("crash-coordinator", true, "crash the round-1 coordinator before proposals")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, err := exp.NewCluster(exp.ClusterConfig{
		Kind: exp.KindAsync, N: *n, F: *f, Seed: *seed,
		Delay:       netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
		StartJitter: -1,
		Window:      10 * time.Millisecond,
		Interval:    50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	type decision struct {
		id ident.ID
		v  consensus.Value
		at time.Duration
	}
	var decisions []decision
	nodes := make([]*consensus.Node, *n)
	for i := range nodes {
		id := ident.ID(i)
		nodes[i], err = consensus.NewNode(c.Net.Env(id), consensus.Config{
			Self: id, N: *n, F: *f, Detector: c.Detector(id),
			OnDecide: func(v consensus.Value) {
				decisions = append(decisions, decision{id: id, v: v, at: c.Sim.Now()})
			},
		})
		if err != nil {
			return err
		}
		c.Attach(id, nodes[i])
	}

	start := 0
	if *crashCoord {
		fmt.Println("crashing round-1 coordinator p0 at t=1s")
		c.Apply(faults.Schedule{}.CrashAt(0, time.Second))
		start = 1
	}
	for i := start; i < *n; i++ {
		v := consensus.Value(100 + i)
		cons := nodes[i]
		c.Sim.At(2*time.Second, func() { cons.Propose(v) })
		fmt.Printf("p%d proposes %d at t=2s\n", i, v)
	}
	c.RunUntil(2 * time.Minute)

	sort.Slice(decisions, func(i, j int) bool { return decisions[i].at < decisions[j].at })
	fmt.Println("\ndecisions:")
	for _, d := range decisions {
		fmt.Printf("  %v decides %d at %v (latency %v)\n", d.id, d.v, d.at, d.at-2*time.Second)
	}
	if len(decisions) == 0 {
		return fmt.Errorf("no process decided")
	}
	return nil
}
