// Package core implements the time-free query–response failure detector of
// the DSN 2003 paper "Asynchronous Implementation of Failure Detectors"
// (Mostéfaoui, Mourgaya, Raynal) as a transport-agnostic state machine.
//
// The detector never reads a clock and never arms a timer. Each process
// forever alternates two activities:
//
//   - Task T1 (driven here by BeginRound/HandleResponse/EndRound): broadcast
//     QUERY carrying the suspected and mistake sets; wait until responses
//     from a quorum of processes (n−f with known membership) have arrived —
//     the process's own response counts and always arrives first; then
//     suspect every known process whose response was not among them.
//   - Task T2 (HandleQuery): merge the suspicion/mistake information
//     piggybacked on a received query, using counter tags for recency
//     (mistakes win ties), one read of the id's slot in the detector's
//     tagset.Table per entry; refute any suspicion of oneself by generating
//     a mistake with a strictly larger tag; answer with RESPONSE.
//
// Under the paper's message-pattern assumption MP (eventually some correct
// process's responses are always "winning" for f+1 processes), the emitted
// suspicion output satisfies the two properties of class ◇S: strong
// completeness and eventual weak accuracy.
//
// The package also supports the unknown-membership / partial-connectivity
// generalization (the paper's future-work direction, published later as
// INRIA RR-6088) as an explicitly labeled extension: membership is then
// learned from received queries, the quorum is d−f where d is the range
// density, and an optional mobility rule evicts remote processes from the
// known set.
//
// For warm-fork replication the state machine keeps what the protocol changes
// in one value (detectorState) and the runtime Node what a run changes in one
// more (nodeState, which holds the Detector); a checkpoint is a copy of the
// latter, made by one copyTo in either direction.
package core

import (
	"errors"
	"fmt"

	"asyncfd/internal/core/tagset"
	"asyncfd/internal/ident"
)

// Membership selects how the detector learns the processes it must monitor.
type Membership int

const (
	// KnownMembership is the paper's model: all n process identities are
	// known from the start and the network is fully connected. The round
	// quorum is n−f.
	KnownMembership Membership = iota + 1
	// UnknownMembership is the extension model: a process initially knows
	// only itself and learns neighbors from received queries. The round
	// quorum is d−f, with d the (known) range density.
	UnknownMembership
)

// String implements fmt.Stringer.
func (m Membership) String() string {
	switch m {
	case KnownMembership:
		return "known"
	case UnknownMembership:
		return "unknown"
	default:
		return fmt.Sprintf("Membership(%d)", int(m))
	}
}

// EventKind classifies suspicion-output transitions.
type EventKind int

const (
	// Suspect is emitted when a process enters the suspected set.
	Suspect EventKind = iota + 1
	// Restore is emitted when a process leaves the suspected set.
	Restore
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Suspect:
		return "suspect"
	case Restore:
		return "restore"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Source records which protocol rule produced a transition.
type Source int

const (
	// LocalDetection is a suspicion generated by task T1 (missing winning
	// response).
	LocalDetection Source = iota + 1
	// Gossip is information adopted from a received query (task T2).
	Gossip
	// SelfRefutation is the mistake a process generates about itself upon
	// seeing itself suspected (task T2, lines 23–25).
	SelfRefutation
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case LocalDetection:
		return "local"
	case Gossip:
		return "gossip"
	case SelfRefutation:
		return "self-refutation"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Event is a suspicion-output transition at one detector.
type Event struct {
	Kind    EventKind
	Subject ident.ID
	Tag     tagset.Tag
	Source  Source
}

// Observer receives suspicion transitions synchronously as the state machine
// applies them. Implementations must be fast and must not call back into the
// detector.
type Observer interface {
	FDEvent(Event)
}

// Config parameterizes a Detector.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// Membership selects the model; zero value defaults to KnownMembership.
	Membership Membership
	// N is the total number of processes (known-membership mode only).
	N int
	// F is the maximum number of processes that may crash (f < n).
	F int
	// D is the range density (unknown-membership mode only); the paper
	// requires d > f+1.
	D int
	// Mobility enables the mobility-management rule (Algorithm 2 of the
	// extension): when a mistake about px arrives carried by a different
	// process pj, px is evicted from the known set (it must live in a
	// remote range).
	Mobility bool
	// DisableTags disables the counter-recency guards (every received piece
	// of information is adopted unconditionally). This exists only for the
	// A1 ablation experiment, to demonstrate that the tags are what lets
	// accuracy stabilize. Never enable it in real use.
	DisableTags bool
	// Observer, if non-nil, receives suspicion transitions.
	Observer Observer
}

// Quorum returns the number of responses (own response included) a query
// needs in order to terminate: n−f with known membership, d−f otherwise.
func (c Config) Quorum() int {
	if c.membership() == KnownMembership {
		return c.N - c.F
	}
	return c.D - c.F
}

func (c Config) membership() Membership {
	if c.Membership == 0 {
		return KnownMembership
	}
	return c.Membership
}

// Validate checks structural requirements from the paper's model section.
func (c Config) Validate() error {
	if !tagset.InRange(c.Self) {
		return fmt.Errorf("core: config: Self must be a process id in [0, %d), got %v", tagset.Limit, c.Self)
	}
	if c.F < 0 {
		return errors.New("core: config: F must be non-negative")
	}
	switch c.membership() {
	case KnownMembership:
		if c.N < 2 {
			return fmt.Errorf("core: config: known membership needs N ≥ 2, got %d", c.N)
		}
		if c.F >= c.N {
			return fmt.Errorf("core: config: need f < n, got f=%d n=%d", c.F, c.N)
		}
		if int(c.Self) >= c.N {
			return fmt.Errorf("core: config: Self=%v out of range for N=%d", c.Self, c.N)
		}
		if c.N > int(tagset.Limit) {
			return fmt.Errorf("core: config: N=%d exceeds the %d process ids the detector indexes", c.N, tagset.Limit)
		}
	case UnknownMembership:
		if c.D <= c.F+1 {
			return fmt.Errorf("core: config: unknown membership needs d > f+1, got d=%d f=%d", c.D, c.F)
		}
	default:
		return fmt.Errorf("core: config: invalid membership %d", c.Membership)
	}
	return nil
}

// Detector is the per-process protocol state machine. It is not safe for
// concurrent use; the driving runtime must serialize calls.
type Detector struct {
	cfg  Config
	self ident.ID
	detectorState
}

// detectorState is everything about a Detector the protocol changes; cfg and
// self never do. It is one value so that the runtime node's checkpoint
// (node.Cloneable) copies it whole, in either direction, with copyTo.
type detectorState struct {
	counter tagset.Tag
	tags    tagset.Table // suspected_i and mistake_i
	known   ident.Set

	round     uint64
	roundOpen bool
	recFrom   ident.Set
}

// copyTo makes dst a copy of s that shares no set storage with it.
func (s *detectorState) copyTo(dst *detectorState) {
	*dst = *s
	dst.tags = s.tags.Clone()
	dst.known = s.known.Clone()
	dst.recFrom = s.recFrom.Clone()
}

// NewDetector builds a detector from cfg.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Membership = cfg.membership()
	d := &Detector{cfg: cfg, self: cfg.Self}
	if cfg.Membership == KnownMembership {
		// All of Π is known from the start (paper's model). Self is
		// included; it is harmless because self is always in rec_from.
		d.known = ident.FullSet(cfg.N)
	} else {
		// "Initially, each node only knows itself."
		d.known.Add(cfg.Self)
	}
	return d, nil
}

// Round returns the identifier of the most recently begun query.
func (d *Detector) Round() uint64 { return d.round }

// RoundOpen reports whether a query is currently awaiting its quorum.
func (d *Detector) RoundOpen() bool { return d.roundOpen }

// Known returns a copy of the current known set.
func (d *Detector) Known() ident.Set { return d.known.Clone() }

// Suspects returns the current suspicion output as a bitset copy. This is
// the failure-detector output read by upper layers (e.g. consensus).
func (d *Detector) Suspects() ident.Set { return d.tags.IDs(tagset.Suspected) }

// IsSuspected reports whether id is currently suspected.
func (d *Detector) IsSuspected(id ident.ID) bool {
	_, st := d.tags.Get(id)
	return st == tagset.Suspected
}

// BeginRound opens a new query (task T1 lines 5–6) and returns the QUERY
// message to broadcast. The process's own response is accounted for
// immediately, implementing the paper's assumption that a node receives its
// own query and that its own response is always among the first quorum
// responses. BeginRound panics if the previous round is still open; the
// paper's model has a node issue a new query only after the previous one
// terminated, and the runtimes preserve that invariant.
func (d *Detector) BeginRound() Query {
	if d.roundOpen {
		panic("core: BeginRound called with a round still open")
	}
	d.round++
	d.roundOpen = true
	d.recFrom.Clear()
	d.recFrom.Add(d.self)
	q := Query{From: d.self, Round: d.round}
	q.Suspected, q.Mistake = d.tags.Entries()
	return q
}

// HandleResponse records a RESPONSE. It returns true when the response was
// counted toward the current query's quorum: responses for stale rounds,
// duplicates and senders outside the id range the detector indexes
// (tagset.InRange) are ignored, and — mirroring the optimization discussed in the
// paper family — responses arriving after the quorum but before EndRound are
// still counted, which only reduces false suspicions.
func (d *Detector) HandleResponse(r Response) bool {
	if !d.roundOpen || r.Round != d.round || !tagset.InRange(r.From) {
		return false
	}
	if d.recFrom.Has(r.From) {
		return false
	}
	d.recFrom.Add(r.From)
	return true
}

// AbortRound abandons the current open query without running the suspicion
// scan — a recovering process discards the round that was in flight when it
// crashed. Aborting with no round open is a no-op. Late responses to the
// aborted round are ignored (no round is open), and the next BeginRound
// bumps the round number past it.
func (d *Detector) AbortRound() {
	d.roundOpen = false
}

// QuorumMet reports whether the current query has gathered its quorum.
func (d *Detector) QuorumMet() bool {
	return d.roundOpen && d.recFrom.Len() >= d.cfg.Quorum()
}

// EndRound closes the current query and runs the suspicion scan of task T1
// (lines 8–16): every known process whose response was not counted becomes
// suspected, tagged with the current counter; a process whose previous
// mistake entry is overridden first bumps the counter above the mistake's
// tag. Finally the counter is incremented. The query must be open and have
// gathered its quorum (QuorumMet); EndRound panics otherwise, since in the
// paper task T1 waits for the quorum before it scans, and the runtimes arm
// the end of a round only once QuorumMet holds.
func (d *Detector) EndRound() {
	if !d.QuorumMet() {
		panic("core: EndRound called without an open round that has met its quorum")
	}
	d.roundOpen = false

	// Deterministic ascending scan of known \ rec_from. Iteration order
	// matters only for the exact tag values when several mistake entries
	// bump the counter mid-scan; ascending order makes runs reproducible.
	d.known.ForEach(func(pj ident.ID) bool {
		if d.recFrom.Has(pj) {
			return true
		}
		tag, st := d.tags.Get(pj)
		if st == tagset.Suspected {
			return true
		}
		if st == tagset.Mistake && d.counter < tag+1 {
			d.counter = tag + 1 // lines 10–13: supersede the old mistake
		}
		d.tags.Put(pj, d.counter, tagset.Suspected)
		d.emit(Event{Kind: Suspect, Subject: pj, Tag: d.counter, Source: LocalDetection})
		return true
	})

	d.counter++ // line 16
}

// HandleQuery is task T2: merge the piggybacked information and produce the
// RESPONSE to send back to the querier. Merging follows the recency guards
// exactly, each one read of the subject's slot (tagset.Table.Compare): a
// suspicion is adopted only if strictly fresher than anything known about the
// subject (line 22); a mistake is adopted when fresher or equally fresh (line
// 33) — mistakes win ties. A process seeing itself in a received suspected
// set refutes it with a new mistake tagged above the suspicion (lines 23–25).
// With Mobility enabled, a relayed mistake about a third process evicts that
// process from the known set (Algorithm 2).
//
// Ids come off the wire and index the detector's storage: an entry or a
// sender whose id is invalid or beyond tagset.Limit is skipped before any
// lookup — it is information about no process this detector can monitor.
func (d *Detector) HandleQuery(q Query) Response {
	if q.From != d.self && tagset.InRange(q.From) {
		d.known.Add(q.From) // line 20
	}
	for _, e := range q.Suspected { // lines 21–31; the ablation skips line 22's guard
		if tagset.InRange(e.ID) && (d.cfg.DisableTags || d.tags.Compare(e, tagset.Suspected) > 0) {
			d.adoptSuspicion(e)
		}
	}
	for _, e := range q.Mistake { // lines 32–37
		if !tagset.InRange(e.ID) {
			continue
		}
		switch c := d.tags.Compare(e, tagset.Mistake); {
		case c < 0 && !d.cfg.DisableTags: // line 33's guard; the ablation skips it
		case c == 0 && !d.cfg.Mobility: // held already: adopting it changes nothing
		default:
			d.adoptMistake(e, q.From)
		}
	}
	return Response{From: d.self, Round: q.Round} // line 38
}

// adoptSuspicion is lines 23–28 for a suspicion line 22 let through: a
// process seeing itself suspected refutes it with a mistake tagged strictly
// above the suspicion; any other subject moves into suspected.
func (d *Detector) adoptSuspicion(e tagset.Entry) {
	if e.ID == d.self {
		if d.counter < e.Tag+1 {
			d.counter = e.Tag + 1
		}
		d.tags.Put(d.self, d.counter, tagset.Mistake)
		d.emit(Event{Kind: Restore, Subject: d.self, Tag: d.counter, Source: SelfRefutation})
		return
	}
	if d.tags.Put(e.ID, e.Tag, tagset.Suspected) != tagset.Suspected {
		d.emit(Event{Kind: Suspect, Subject: e.ID, Tag: e.Tag, Source: Gossip})
	}
}

// adoptMistake is lines 34–37 for a mistake line 33 let through: its subject
// moves into mistake. With Mobility, a mistake about px that reached us
// through pj ≠ px evicts px from the known set, since px presumably lives in
// a remote range (Algorithm 2 lines 36–38).
func (d *Detector) adoptMistake(e tagset.Entry, from ident.ID) {
	if d.tags.Put(e.ID, e.Tag, tagset.Mistake) == tagset.Suspected {
		d.emit(Event{Kind: Restore, Subject: e.ID, Tag: e.Tag, Source: Gossip})
	}
	if d.cfg.Mobility && e.ID != from && e.ID != d.self {
		d.known.Remove(e.ID)
	}
}

func (d *Detector) emit(e Event) {
	if d.cfg.Observer != nil {
		d.cfg.Observer.FDEvent(e)
	}
}
