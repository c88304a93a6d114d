// MANET (extension): the detector in its unknown-membership,
// partial-connectivity form — nodes know only themselves initially, learn
// their radio neighborhood from received queries, and flood suspicions
// across hops. One node then moves to the other side of the network; the
// mobility rule lets both sides converge after the ping-pong of suspicions
// and refutations.
//
// This is NOT part of the reproduced DSN 2003 paper; it is the extension
// direction its future work points to (INRIA RR-6088). See README.md.
package main

import (
	"fmt"
	"os"
	"time"

	"asyncfd/internal/core"
	"asyncfd/internal/exp"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "manet:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n = 16
		k = 3 // circulant chords: degree 6, range density d = 7
		f = 2
	)
	g := topology.Circulant(n, k)
	fmt.Printf("topology: circulant ring of %d nodes, range density d=%d, f=%d (quorum d-f=%d)\n",
		n, g.RangeDensity(), f, g.RangeDensity()-f)
	fmt.Printf("f-covering ((f+1)-connected): %v\n\n", g.IsFCovering(f))

	c, err := exp.NewCluster(exp.ClusterConfig{
		Kind: exp.KindAsync, Graph: g, F: f, Seed: 3,
		Delay:       netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
		StartJitter: -1,
		Window:      50 * time.Millisecond,
		Interval:    100 * time.Millisecond,
		Rebroadcast: 500 * time.Millisecond,
		Mobility:    true,
	})
	if err != nil {
		return err
	}
	known := func(id ident.ID) ident.Set { return c.Detector(id).(*core.Node).Known() }

	c.RunUntil(2 * time.Second)
	fmt.Printf("after 2s, p0 has discovered its range: known = %v\n", known(0))

	// p0 moves: detaches at 5s, reattaches across the ring at 10s.
	newRange := ident.SetOf(6, 7, 8, 9, 10, 11)
	fmt.Printf("\np0 detaches at t=5s and reattaches at t=10s next to %v\n", newRange)
	c.RelocateAt(0, newRange, 5*time.Second, 10*time.Second)

	c.RunUntil(8 * time.Second)
	fmt.Printf("t=8s (p0 away): p1 (old neighbor) suspects %v\n", c.Detector(1).Suspects())

	c.RunUntil(11 * time.Second)
	fmt.Printf("t=11s (just reattached): p0 suspects %v (its old range is silent for it now)\n",
		c.Detector(0).Suspects())

	c.RunUntil(90 * time.Second)
	fmt.Println("\nt=90s: mistakes have flooded and the mobility rule pruned stale members:")
	fmt.Printf("  p0 known = %v, suspects %v\n", known(0), c.Detector(0).Suspects())
	fmt.Printf("  p1 known = %v, suspects %v\n", known(1), c.Detector(1).Suspects())
	fmt.Println("  (known sets oscillate by design: evicted members are re-learned from their next queries)")

	falseSusp := 0
	for i := 0; i < n; i++ {
		falseSusp += c.Detector(ident.ID(i)).Suspects().Len()
	}
	fmt.Printf("\ntotal lingering suspicions across the network: %d\n", falseSusp)
	if falseSusp != 0 {
		return fmt.Errorf("network did not converge")
	}
	return nil
}
