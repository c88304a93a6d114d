// Consensus: the point of a ◇S failure detector is that it makes consensus
// solvable in an asynchronous system with a correct majority. This example
// runs Chandra–Toueg rotating-coordinator consensus on top of the time-free
// detector while the first coordinator is crashed — the detector's
// suspicions are what lets the protocol rotate past the dead coordinator.
package main

import (
	"fmt"
	"os"
	"time"

	"asyncfd/internal/consensus"
	"asyncfd/internal/exp"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "consensus:", err)
		os.Exit(1)
	}
}

func run() error {
	const n, f = 5, 2
	c, err := exp.NewCluster(exp.ClusterConfig{
		Kind: exp.KindAsync, N: n, F: f, Seed: 7,
		Delay:       netsim.Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond},
		StartJitter: -1,
		Window:      10 * time.Millisecond,
		Interval:    50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	nodes := make([]*consensus.Node, n)
	for i := range nodes {
		id := ident.ID(i)
		nodes[i], err = consensus.NewNode(c.Net.Env(id), consensus.Config{
			Self: id, N: n, F: f, Detector: c.Detector(id),
			OnDecide: func(v consensus.Value) {
				fmt.Printf("  %v decides %d at t=%v\n", id, v, c.Sim.Now().Round(time.Millisecond))
			},
		})
		if err != nil {
			return err
		}
		c.Attach(id, nodes[i])
	}

	fmt.Println("p0 (round-1 coordinator) crashes at t=500ms; survivors propose at t=2s")
	c.Apply(faults.Schedule{}.CrashAt(0, 500*time.Millisecond))
	for i := 1; i < n; i++ {
		v := consensus.Value(10 * i)
		cons := nodes[i]
		fmt.Printf("  p%d will propose %d\n", i, v)
		c.Sim.At(2*time.Second, func() { cons.Propose(v) })
	}
	fmt.Println("decisions:")
	c.RunUntil(time.Minute)

	for i := 1; i < n; i++ {
		if _, ok := nodes[i].Decided(); !ok {
			return fmt.Errorf("p%d did not decide", i)
		}
	}
	return nil
}
