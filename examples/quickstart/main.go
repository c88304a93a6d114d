// Quickstart: run the time-free failure detector on four processes that talk
// over loopback TCP sockets in real time, crash one, and watch the survivors
// suspect it — no clocks, no timeouts involved in the detection logic itself.
// The program checks itself: it exits non-zero unless p0–p2 come to suspect
// the crashed p3 and, once settled, no survivor suspects another. A node holds
// no lock of its own, so main reaches each one through its transport's Do.
package main

import (
	"fmt"
	"os"
	"time"

	"asyncfd"
)

const (
	n       = 4 // processes
	f       = 1 // crash bound
	crashed = asyncfd.ID(n - 1)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Suspicion transitions are reported through a sink.
	sink := sinkFunc(func(at time.Duration, observer, subject asyncfd.ID, suspected bool) {
		verb := "suspects"
		if !suspected {
			verb = "trusts again"
		}
		fmt.Printf("[%8v] %v %s %v\n", at.Round(time.Millisecond), observer, verb, subject)
	})

	transports := make([]*asyncfd.Transport, n)
	nodes := make([]*asyncfd.Node, n)
	for i := range nodes {
		id := asyncfd.ID(i)
		cell := &handlerCell{}
		tr, err := asyncfd.NewTransport(asyncfd.TransportConfig{Self: id, ListenAddr: "127.0.0.1:0", Handler: cell})
		if err != nil {
			return err
		}
		defer tr.Close()
		node, err := asyncfd.NewNode(tr, asyncfd.NodeConfig{
			Detector: asyncfd.Config{Self: id, Membership: asyncfd.KnownMembership, N: n, F: f},
			Window:   10 * time.Millisecond, // extra response collection per round
			Interval: 25 * time.Millisecond, // pause between query rounds
			Sink:     sink,
		})
		if err != nil {
			return err
		}
		defer tr.Do(node.Stop)
		cell.node = node
		transports[i], nodes[i] = tr, node
	}
	for i, tr := range transports {
		for j, peer := range transports {
			if i != j {
				tr.AddPeer(asyncfd.ID(j), peer.Addr())
			}
		}
	}
	for i, tr := range transports {
		tr.Do(nodes[i].Start)
	}

	fmt.Println("cluster running on loopback sockets; all processes answering queries...")
	time.Sleep(300 * time.Millisecond)

	fmt.Printf("crashing %v...\n", crashed)
	transports[crashed].Do(nodes[crashed].Stop)
	transports[crashed].Close()

	survivors := transports[:crashed]
	if err := await("the survivors suspect "+crashed.String(), survivors, func(i int) bool {
		return nodes[i].IsSuspected(crashed)
	}); err != nil {
		return err
	}
	// A survivor may suspect another for a round or two; the refutation
	// flooded in the next queries clears it.
	time.Sleep(200 * time.Millisecond)
	if err := await("no survivor suspects another", survivors, func(i int) bool {
		s := nodes[i].Suspects()
		return s.Len() == 1 && s.Has(crashed)
	}); err != nil {
		return err
	}
	for i, tr := range survivors {
		tr.Do(func() { fmt.Printf("%v final suspects: %v\n", asyncfd.ID(i), nodes[i].Suspects()) })
	}
	return nil
}

// await polls until ok(i) holds for every process i of transports, each
// asked through its transport's Do, or fails after five seconds.
func await(what string, transports []*asyncfd.Transport, ok func(i int) bool) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		all := true
		for i, tr := range transports {
			tr.Do(func() { all = all && ok(i) })
		}
		if all {
			return nil
		}
	}
	return fmt.Errorf("not within 5s: %s", what)
}

// handlerCell breaks the transport↔node construction cycle.
type handlerCell struct{ node *asyncfd.Node }

func (c *handlerCell) Deliver(from asyncfd.ID, payload any) {
	if c.node != nil {
		c.node.Deliver(from, payload)
	}
}

// sinkFunc adapts a function to asyncfd.SuspicionSink.
type sinkFunc func(at time.Duration, observer, subject asyncfd.ID, suspected bool)

func (f sinkFunc) OnSuspicion(at time.Duration, observer, subject asyncfd.ID, suspected bool) {
	f(at, observer, subject, suspected)
}
