// Command fdsim runs a single simulated failure-detector scenario and prints
// the suspicion timeline plus QoS summary. Beyond the classic single
// crash-stop failure it drives the generalized fault scenarios: a
// crash-recovery (the crashed process rejoins with fresh or persisted
// detector state, optionally crashing again) and a partition/heal window
// that cuts a minority island off the cluster.
//
// Usage:
//
//	fdsim [-kind async|heartbeat|phi-accrual|chen-nfde] [-n 8] [-f 2]
//	      [-crash 4] [-crash-at 10s] [-recover-at 0] [-fresh]
//	      [-crash2-at 0] [-partition-at 0] [-heal-at 0] [-island 0]
//	      [-dur 30s] [-seed 1] [-trace]
//
// -recover-at > 0 revives the crashed process at that time (-fresh selects
// fresh vs. persisted detector state) and -crash2-at > 0 crashes it a second
// time, reporting re-detection and trust-restoration metrics. -partition-at
// with -heal-at cuts off the last -island processes (default n/4) for the
// window and reports the mistake storm and the re-convergence time after the
// heal.
package main

import (
	"flag"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fdsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fdsim", flag.ContinueOnError)
	kindName := fs.String("kind", "async", "detector: async, heartbeat, phi-accrual, chen-nfde")
	n := fs.Int("n", 8, "number of processes")
	f := fs.Int("f", 2, "crash bound f")
	crash := fs.Int("crash", -1, "process to crash (-1 = none)")
	crashAt := fs.Duration("crash-at", 10*time.Second, "crash time")
	recoverAt := fs.Duration("recover-at", 0, "recovery time of the crashed process (0 = crash-stop)")
	fresh := fs.Bool("fresh", true, "recover with fresh detector state (false = persisted)")
	crash2At := fs.Duration("crash2-at", 0, "second crash time after the recovery (0 = none)")
	partitionAt := fs.Duration("partition-at", 0, "cut a minority island off at this time (0 = no partition)")
	healAt := fs.Duration("heal-at", 0, "heal the partition at this time")
	island := fs.Int("island", 0, "size of the minority island (0 = n/4, at least 1)")
	dur := fs.Duration("dur", 30*time.Second, "virtual run duration")
	seed := fs.Int64("seed", 1, "random seed")
	showTrace := fs.Bool("trace", true, "print the suspicion event timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var kind exp.Kind
	for _, k := range exp.AllKinds() {
		if k.String() == *kindName {
			kind = k
		}
	}
	if kind == 0 {
		return fmt.Errorf("unknown detector kind %q", *kindName)
	}

	if *crash < -1 || *crash >= *n {
		return fmt.Errorf("-crash %d: no such process (want -1 for none, or 0..%d)", *crash, *n-1)
	}
	if *recoverAt > 0 {
		if *crash < 0 {
			return fmt.Errorf("-recover-at needs -crash")
		}
		if *recoverAt <= *crashAt {
			return fmt.Errorf("-recover-at %v must be after -crash-at %v", *recoverAt, *crashAt)
		}
		if *crash2At > 0 && *crash2At <= *recoverAt {
			return fmt.Errorf("-crash2-at %v must be after -recover-at %v", *crash2At, *recoverAt)
		}
	} else if *crash2At > 0 {
		return fmt.Errorf("-crash2-at needs -recover-at")
	}
	if *healAt > 0 {
		if *partitionAt <= 0 {
			return fmt.Errorf("-heal-at needs -partition-at")
		}
		if *healAt <= *partitionAt {
			return fmt.Errorf("-heal-at %v must be after -partition-at %v", *healAt, *partitionAt)
		}
	}
	// A fault at or past the horizon never happens, yet would enter the
	// ground truth and be judged as if it had.
	for _, fault := range []struct {
		flag string
		at   time.Duration
		set  bool
	}{
		{"-crash-at", *crashAt, *crash >= 0},
		{"-recover-at", *recoverAt, *recoverAt > 0},
		{"-crash2-at", *crash2At, *crash2At > 0},
		{"-partition-at", *partitionAt, *partitionAt > 0},
		{"-heal-at", *healAt, *healAt > 0},
	} {
		if fault.set && fault.at >= *dur {
			return fmt.Errorf("%s %v does not precede the horizon (-dur %v)", fault.flag, fault.at, *dur)
		}
	}

	cfg := exp.ClusterConfig{
		Kind: kind, N: *n, F: *f, Seed: *seed,
		Delay: netsim.Exponential{Min: 500 * time.Microsecond, Mean: 700 * time.Microsecond, Cap: 100 * time.Millisecond},
	}
	if *partitionAt > 0 {
		// A cut-off island cannot reach the async quorum; rebroadcast lets
		// its stalled queries complete after the heal.
		cfg.Rebroadcast = 2 * time.Second
	}
	c, err := exp.NewCluster(cfg)
	if err != nil {
		return err
	}

	schedule := faults.Schedule{}
	victim := ident.ID(*crash)
	if *crash >= 0 {
		schedule = schedule.CrashAt(victim, *crashAt)
		if *recoverAt > 0 {
			schedule = schedule.RecoverAt(victim, *recoverAt, *fresh)
			if *crash2At > 0 {
				schedule = schedule.CrashAt(victim, *crash2At)
			}
		}
	}
	var minority []ident.ID
	if *partitionAt > 0 {
		size := *island
		if size <= 0 {
			size = *n / 4
		}
		if size < 1 {
			size = 1
		}
		if size >= *n {
			return fmt.Errorf("island size %d must be smaller than n=%d", size, *n)
		}
		for i := *n - size; i < *n; i++ {
			minority = append(minority, ident.ID(i))
		}
		schedule = schedule.PartitionAt(*partitionAt, minority)
		if *healAt > *partitionAt {
			schedule = schedule.HealAt(*healAt)
		}
	}
	truth := c.Apply(schedule)
	c.RunUntil(*dur)

	fmt.Printf("detector=%v n=%d f=%d seed=%d horizon=%v\n\n", kind, *n, *f, *seed, *dur)
	if *showTrace {
		fmt.Print("suspicion timeline:\n")
		events := c.Log.Events()
		if len(events) == 0 {
			fmt.Println("  (no suspicion events)")
		}
		for _, e := range events {
			fmt.Printf("  %v\n", e)
		}
		fmt.Println()
	}
	judge := qos.JudgeFrom(c.Log)
	if *crash >= 0 {
		observers := c.Members.Clone()
		observers.Remove(victim)
		if *recoverAt > 0 {
			det := judge.RedetectionTimes(truth, victim, observers, 0)
			fmt.Printf("detection of %v (crash #1): avg=%v min=%v max=%v detected-by=%d missing=%d\n",
				victim, det.Avg, det.Min, det.Max, det.Count, det.Missing)
			rst := judge.TrustRestorationTimes(truth, victim, observers, 0)
			fmt.Printf("trust restoration after recovery: avg=%v max=%v restored-by=%d never=%d\n",
				rst.Avg, rst.Max, rst.Count, rst.Missing)
			if *crash2At > 0 {
				det2 := judge.RedetectionTimes(truth, victim, observers, 1)
				fmt.Printf("re-detection (crash #2): avg=%v min=%v max=%v detected-by=%d missing=%d\n",
					det2.Avg, det2.Min, det2.Max, det2.Count, det2.Missing)
				storm := judge.MistakeStorm(truth, c.Members, *recoverAt, *crash2At)
				fmt.Printf("mistake storm while recovered: %d false-suspicion episodes\n", storm)
			}
		} else {
			det := judge.DetectionTimes(truth, victim, observers)
			fmt.Printf("detection of %v: avg=%v min=%v max=%v detected-by=%d missing=%d\n",
				victim, det.Avg, det.Min, det.Max, det.Count, det.Missing)
		}
	}
	if *partitionAt > 0 {
		end := *healAt
		if end <= *partitionAt {
			end = *dur
		}
		storm := judge.MistakeStorm(truth, c.Members, *partitionAt, end)
		fmt.Printf("partition window [%v,%v) island=%v: %d false-suspicion episodes\n",
			*partitionAt, end, minority, storm)
		if *healAt > *partitionAt {
			settle, clean := judge.Reconvergence(truth, c.Members, *healAt)
			fmt.Printf("re-convergence after heal: settle=%v clean=%v\n", settle, clean)
		}
	}
	mist := judge.Mistakes(truth, c.Members, *dur)
	pa := judge.QueryAccuracy(truth, c.Members, *dur)
	fmt.Printf("mistakes: closed=%d unresolved=%d avg-duration=%v rate=%.5f/pair/s\n",
		mist.Count, mist.Unresolved, mist.AvgDuration, mist.Rate)
	fmt.Printf("query accuracy PA=%.4f\n", pa)
	st := c.Net.Stats()
	fmt.Printf("traffic: sent=%d delivered=%d dropped=%d\n", st.Sent, st.Delivered, st.Dropped)
	return nil
}
