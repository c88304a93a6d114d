// Package faults builds fault scenarios for simulated runs and applies them
// to the network while recording the ground truth the QoS metrics are judged
// against. A scenario is an ordered schedule of typed events: crash-stop (or
// crash-phase) failures, crash-recovery restarts with fresh or persisted
// detector state, network partitions into islands, and heals.
//
// In the terminology of the repository README's architecture map, this is
// the fault-injection layer between the network model (internal/netsim,
// which executes the events) and the QoS judge (internal/qos, whose
// GroundTruth this package populates). internal/scenario compiles and
// validates every Schedule a document describes; the R1/R2 sweeps,
// fdbench -config and fdsim all run what it compiles.
package faults

import (
	"math/rand"
	"sort"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
)

// EventKind names a fault-scenario event type by its
// asyncfd-scenario/v1 events[].kind tag.
type EventKind string

const (
	// KindCrash stops a process (crash-stop unless a later Recover revives it).
	KindCrash EventKind = "crash"
	// KindRecover revives a crashed process.
	KindRecover EventKind = "recover"
	// KindPartition splits the network into islands.
	KindPartition EventKind = "partition"
	// KindHeal removes the most recent partition.
	KindHeal EventKind = "heal"
)

// Event is one scheduled fault-scenario step.
type Event struct {
	At   time.Duration
	Kind EventKind
	// ID is the affected process (Crash and Recover events).
	ID ident.ID
	// FreshState, on a Recover event, makes the process restart its detector
	// from scratch (volatile state lost in the reboot); false resumes with
	// the state held at the crash (persisted-state recovery).
	FreshState bool
	// Islands, on a Partition event, lists the connectivity islands; see
	// netsim.Network.Partition for the exact semantics.
	Islands [][]ident.ID
}

// Schedule is an ordered fault scenario. Builders may append events out of
// time order; Apply sorts them (stably) by time before scheduling.
type Schedule []Event

// CrashAt appends a crash, returning the extended schedule.
func (s Schedule) CrashAt(id ident.ID, at time.Duration) Schedule {
	return append(s, Event{At: at, Kind: KindCrash, ID: id})
}

// RecoverAt appends a recovery of id at time at. fresh selects whether the
// process restarts with fresh or persisted detector state.
func (s Schedule) RecoverAt(id ident.ID, at time.Duration, fresh bool) Schedule {
	return append(s, Event{At: at, Kind: KindRecover, ID: id, FreshState: fresh})
}

// PartitionAt appends a partition into the given islands at time at.
// Processes not listed in any island together form one implicit extra
// island (netsim semantics).
func (s Schedule) PartitionAt(at time.Duration, islands ...[]ident.ID) Schedule {
	return append(s, Event{At: at, Kind: KindPartition, Islands: islands})
}

// HealAt appends a heal of the most recent partition at time at.
func (s Schedule) HealAt(at time.Duration) Schedule {
	return append(s, Event{At: at, Kind: KindHeal})
}

// Uniform schedules count crashes of distinct processes drawn from
// candidates, evenly spaced over [start, end] with both ends included — the
// paper family's "faults uniformly inserted during an experiment" setup. With
// count > 1 the first crash lands at start and the last exactly at end (so
// end must precede any horizon the schedule is checked against); a single
// crash lands at the midpoint. A non-positive count or an empty candidate
// slice yields an empty schedule.
func Uniform(r *rand.Rand, candidates []ident.ID, count int, start, end time.Duration) Schedule {
	if count <= 0 || len(candidates) == 0 {
		return Schedule{}
	}
	if count > len(candidates) {
		count = len(candidates)
	}
	perm := r.Perm(len(candidates))
	plan := make(Schedule, 0, count)
	span := end - start
	for i := 0; i < count; i++ {
		at := start
		if count > 1 {
			at += span * time.Duration(i) / time.Duration(count-1)
		} else {
			at += span / 2
		}
		plan = plan.CrashAt(candidates[perm[i]], at)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan
}

// Apply schedules every event on the simulator against the network and
// records crashes and recoveries in a fresh ground truth. Recoveries revive
// the process at the network layer only; cluster layers that must also
// restart the detector runtime use ApplyFunc.
func (s Schedule) Apply(sim *des.Simulator, net *netsim.Network) *qos.GroundTruth {
	return s.ApplyFunc(sim, net, nil)
}

// ApplyFunc is Apply with a recovery hook: onRecover (when non-nil) runs at
// each Recover event, after the network has revived the process — the
// cluster layers use it to restart the process's detector runtime with
// fresh or persisted state.
func (s Schedule) ApplyFunc(sim *des.Simulator, net *netsim.Network, onRecover func(id ident.ID, fresh bool)) *qos.GroundTruth {
	ordered := append(Schedule(nil), s...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	truth := &qos.GroundTruth{}
	for _, e := range ordered {
		e := e
		switch e.Kind {
		case KindCrash:
			truth.Crash(e.ID, e.At)
			sim.At(e.At, func() { net.Crash(e.ID) })
		case KindRecover:
			truth.Recover(e.ID, e.At)
			sim.At(e.At, func() {
				net.Recover(e.ID)
				if onRecover != nil {
					onRecover(e.ID, e.FreshState)
				}
			})
		case KindPartition:
			sim.At(e.At, func() { net.Partition(e.Islands...) })
		case KindHeal:
			sim.At(e.At, func() { net.Heal() })
		}
	}
	return truth
}

// IDs returns the processes that crash under the schedule.
func (s Schedule) IDs() ident.Set {
	var out ident.Set
	for _, e := range s {
		if e.Kind == KindCrash {
			out.Add(e.ID)
		}
	}
	return out
}
