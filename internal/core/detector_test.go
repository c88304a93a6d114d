package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"asyncfd/internal/core/tagset"
	"asyncfd/internal/ident"
)

func mustDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatalf("NewDetector(%+v): %v", cfg, err)
	}
	return d
}

func knownCfg(self ident.ID, n, f int) Config {
	return Config{Self: self, Membership: KnownMembership, N: n, F: f}
}

// dump renders d's whole protocol state, for comparisons and test failures.
func dump(d *Detector) string {
	return fmt.Sprintf("%v{counter=%d %v known=%v}", d.self, uint64(d.counter), &d.tags, d.known)
}

// suspected and mistakes return d's suspected and mistake sets as entries in
// ascending id order.
func suspected(d *Detector) []tagset.Entry {
	s, _ := d.tags.Entries()
	return s
}

func mistakes(d *Detector) []tagset.Entry {
	_, m := d.tags.Entries()
	return m
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid known", knownCfg(0, 4, 1), false},
		{"zero membership defaults to known", Config{Self: 0, N: 4, F: 1}, false},
		{"f too large", knownCfg(0, 4, 4), true},
		{"f negative", knownCfg(0, 4, -1), true},
		{"n too small", knownCfg(0, 1, 0), true},
		{"self out of range", knownCfg(9, 4, 1), true},
		{"self invalid", knownCfg(ident.Nil, 4, 1), true},
		{"valid unknown", Config{Self: 3, Membership: UnknownMembership, D: 4, F: 1}, false},
		{"unknown density too small", Config{Self: 3, Membership: UnknownMembership, D: 2, F: 1}, true},
		{"bad membership", Config{Self: 0, Membership: Membership(9), N: 4}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
			_, err = NewDetector(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewDetector() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestQuorum(t *testing.T) {
	if got := knownCfg(0, 10, 3).Quorum(); got != 7 {
		t.Errorf("known quorum = %d, want n-f = 7", got)
	}
	cfg := Config{Self: 0, Membership: UnknownMembership, D: 7, F: 2}
	if got := cfg.Quorum(); got != 5 {
		t.Errorf("unknown quorum = %d, want d-f = 5", got)
	}
}

func TestInitialState(t *testing.T) {
	d := mustDetector(t, knownCfg(1, 4, 1))
	if d.counter != 0 {
		t.Errorf("initial counter = %d, want 0", d.counter)
	}
	if d.Suspects().Len() != 0 {
		t.Errorf("initial suspects = %v, want empty", d.Suspects())
	}
	if got := d.Known(); got.Len() != 4 {
		t.Errorf("known-membership known set = %v, want all 4", got)
	}
	if d.RoundOpen() {
		t.Error("round open before BeginRound")
	}
}

func TestInitialStateUnknown(t *testing.T) {
	d := mustDetector(t, Config{Self: 5, Membership: UnknownMembership, D: 4, F: 1})
	known := d.Known()
	if known.Len() != 1 || !known.Has(5) {
		t.Errorf("unknown-membership initial known = %v, want {p5}", known)
	}
}

func TestBeginRoundCountsSelf(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 4, 1))
	q := d.BeginRound()
	if q.From != 0 || q.Round != 1 {
		t.Errorf("query = %+v, want From=p0 Round=1", q)
	}
	if !d.RoundOpen() {
		t.Error("round not open after BeginRound")
	}
	// quorum is 3; self already counted.
	if d.QuorumMet() {
		t.Error("quorum met with only self")
	}
	d.HandleResponse(Response{From: 1, Round: 1})
	if d.QuorumMet() {
		t.Error("quorum met with 2 of 3")
	}
	d.HandleResponse(Response{From: 2, Round: 1})
	if !d.QuorumMet() {
		t.Error("quorum not met with 3 of 3")
	}
}

func TestBeginRoundPanicsWhenOpen(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 4, 1))
	d.BeginRound()
	defer func() {
		if recover() == nil {
			t.Error("BeginRound on open round did not panic")
		}
	}()
	d.BeginRound()
}

func TestHandleResponseFiltering(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 4, 1))
	if d.HandleResponse(Response{From: 1, Round: 1}) {
		t.Error("response counted before any round")
	}
	d.BeginRound()
	if d.HandleResponse(Response{From: 1, Round: 99}) {
		t.Error("response for wrong round counted")
	}
	if !d.HandleResponse(Response{From: 1, Round: 1}) {
		t.Error("valid response not counted")
	}
	if d.HandleResponse(Response{From: 1, Round: 1}) {
		t.Error("duplicate response counted")
	}
	if d.HandleResponse(Response{From: 0, Round: 1}) {
		t.Error("own response double-counted")
	}
}

// TestEndRoundPanicsWithoutQuorum: task T1 scans only after its quorum has
// arrived, so EndRound refuses to run with no round open, and with a round
// open but short of its quorum — and a refused call changes nothing.
func TestEndRoundPanicsWithoutQuorum(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 4, 1))
	mustPanic := func(when string) {
		t.Helper()
		before := dump(d)
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("EndRound %s did not panic", when)
			}
			if got := dump(d); got != before {
				t.Errorf("EndRound %s changed the state: %s, want %s", when, got, before)
			}
		}()
		d.EndRound()
	}
	mustPanic("with no round open")
	q := d.BeginRound()
	d.HandleResponse(Response{From: 1, Round: q.Round}) // 2 of the quorum of 3
	mustPanic("short of the quorum")
	if !d.RoundOpen() {
		t.Error("the refused EndRound closed the round")
	}
	d.HandleResponse(Response{From: 2, Round: q.Round})
	d.EndRound()
	mustPanic("after the round closed")
}

// runRound drives one full query round for d with responses from the given
// processes (self is implicit).
func runRound(t *testing.T, d *Detector, responders ...ident.ID) {
	t.Helper()
	q := d.BeginRound()
	for _, r := range responders {
		d.HandleResponse(Response{From: r, Round: q.Round})
	}
	if !d.QuorumMet() {
		t.Fatalf("round %d short of its quorum (state %s)", q.Round, dump(d))
	}
	d.EndRound()
}

func TestLocalSuspicion(t *testing.T) {
	// n=4, f=1, quorum 3. p0 hears from p1, p2 but not p3 → suspect p3 tag 0.
	d := mustDetector(t, knownCfg(0, 4, 1))
	runRound(t, d, 1, 2)
	if got := fmt.Sprint(suspected(d)); got != "[⟨p3, 0⟩]" {
		t.Fatalf("suspected = %s, want [⟨p3, 0⟩]", got)
	}
	if d.counter != 1 {
		t.Errorf("counter = %d, want 1 after round", d.counter)
	}
	if !d.recFrom.Equal(ident.SetOf(0, 1, 2)) {
		t.Errorf("recFrom = %v, want {p0,p1,p2}", d.recFrom)
	}
}

func TestExtraResponsesReduceSuspicion(t *testing.T) {
	// All respond (more than quorum counted before EndRound) → nobody suspected.
	d := mustDetector(t, knownCfg(0, 4, 1))
	runRound(t, d, 1, 2, 3)
	if len(suspected(d)) != 0 {
		t.Errorf("suspected = %v, want none", suspected(d))
	}
}

func TestRepeatedRoundsDoNotResuspend(t *testing.T) {
	obs := &recordingObserver{}
	cfg := knownCfg(0, 4, 1)
	cfg.Observer = obs
	d := mustDetector(t, cfg)
	runRound(t, d, 1, 2)
	runRound(t, d, 1, 2)
	if len(obs.events) != 1 {
		t.Errorf("two rounds emitted %v, want the first round's one suspicion", obs.events)
	}
	if got := fmt.Sprint(suspected(d)); got != "[⟨p3, 0⟩]" {
		t.Errorf("suspected = %s, want [⟨p3, 0⟩] with original tag", got)
	}
}

func TestSuspicionAfterMistakeBumpsCounter(t *testing.T) {
	// Lines 10–13: re-suspecting a process whose mistake entry carries tag m
	// must use a tag > m, so the new suspicion beats the old mistake.
	d := mustDetector(t, knownCfg(0, 4, 1))
	// Install a mistake about p3 with tag 7 via gossip.
	d.HandleQuery(Query{From: 1, Round: 1, Mistake: []tagset.Entry{{ID: 3, Tag: 7}}})
	if d.IsSuspected(3) {
		t.Fatal("mistake should not suspect")
	}
	runRound(t, d, 1, 2) // p3 silent → suspect
	if got := fmt.Sprint(suspected(d)); got != "[⟨p3, 8⟩]" {
		t.Errorf("suspected = %s, want [⟨p3, 8⟩] (mistake tag 7 + 1)", got)
	}
	if len(mistakes(d)) != 0 {
		t.Errorf("mistake set = %v, want empty after supersession", mistakes(d))
	}
	if d.counter != 9 {
		t.Errorf("counter = %d, want 9 (bumped to 8, then +1)", d.counter)
	}
}

func TestHandleQueryLearnsSender(t *testing.T) {
	d := mustDetector(t, Config{Self: 0, Membership: UnknownMembership, D: 3, F: 1})
	resp := d.HandleQuery(Query{From: 7, Round: 42})
	if resp.From != 0 || resp.Round != 42 {
		t.Errorf("response = %+v, want From=p0 Round=42", resp)
	}
	if !d.Known().Has(7) {
		t.Error("sender not learned into known set")
	}
}

func TestHandleQueryAdoptsFresherSuspicion(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 5, 1))
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 3, Tag: 5}}})
	if got, _ := mustGet(t, d, 3); got != 5 {
		t.Errorf("adopted tag = %d, want 5", got)
	}
	// Fresher info replaces.
	d.HandleQuery(Query{From: 2, Suspected: []tagset.Entry{{ID: 3, Tag: 10}}})
	if got, _ := mustGet(t, d, 3); got != 10 {
		t.Errorf("tag after fresher gossip = %d, want 10", got)
	}
	// Stale info discarded.
	d.HandleQuery(Query{From: 4, Suspected: []tagset.Entry{{ID: 3, Tag: 6}}})
	if got, _ := mustGet(t, d, 3); got != 10 {
		t.Errorf("tag after stale gossip = %d, want 10 (unchanged)", got)
	}
	// Equal suspicion does not reapply (strict guard).
	d.HandleQuery(Query{From: 4, Suspected: []tagset.Entry{{ID: 3, Tag: 10}}})
	if got, _ := mustGet(t, d, 3); got != 10 {
		t.Errorf("tag after equal gossip = %d, want 10", got)
	}
}

func mustGet(t *testing.T, d *Detector, id ident.ID) (tagset.Tag, bool) {
	t.Helper()
	tag, st := d.tags.Get(id)
	ok := st == tagset.Suspected
	if !ok {
		t.Fatalf("%v not suspected; state %s", id, dump(d))
	}
	return tag, true
}

func TestSelfRefutation(t *testing.T) {
	d := mustDetector(t, knownCfg(2, 5, 1))
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 2, Tag: 9}}})
	if d.IsSuspected(2) {
		t.Fatal("process adopted a suspicion about itself")
	}
	mist := mistakes(d)
	if len(mist) != 1 || mist[0].ID != 2 || mist[0].Tag != 10 {
		t.Fatalf("mistake = %v, want [⟨p2, 10⟩] (suspicion tag + 1)", mist)
	}
	if d.counter != 10 {
		t.Errorf("counter = %d, want 10", d.counter)
	}
	// A stale copy of the same suspicion must not trigger a second mistake.
	d.HandleQuery(Query{From: 3, Suspected: []tagset.Entry{{ID: 2, Tag: 9}}})
	mist = mistakes(d)
	if len(mist) != 1 || mist[0].Tag != 10 {
		t.Errorf("mistake after stale re-suspicion = %v, want unchanged", mist)
	}
	// A fresher suspicion of self triggers a new, higher refutation.
	d.HandleQuery(Query{From: 3, Suspected: []tagset.Entry{{ID: 2, Tag: 20}}})
	mist = mistakes(d)
	if len(mist) != 1 || mist[0].Tag != 21 {
		t.Errorf("mistake after fresher re-suspicion = %v, want tag 21", mist)
	}
}

func TestMistakeClearsSuspicion(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 5, 1))
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 3, Tag: 5}}})
	if !d.IsSuspected(3) {
		t.Fatal("setup failed")
	}
	// Equal-tag mistake wins the tie (line 33 uses ≤).
	d.HandleQuery(Query{From: 2, Mistake: []tagset.Entry{{ID: 3, Tag: 5}}})
	if d.IsSuspected(3) {
		t.Error("equal-tag mistake did not clear suspicion")
	}
	if len(mistakes(d)) != 1 {
		t.Errorf("mistake set = %v", mistakes(d))
	}
}

func TestStaleMistakeIgnored(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 5, 1))
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 3, Tag: 8}}})
	d.HandleQuery(Query{From: 2, Mistake: []tagset.Entry{{ID: 3, Tag: 7}}})
	if !d.IsSuspected(3) {
		t.Error("stale mistake cleared a fresher suspicion")
	}
}

func TestFresherSuspicionClearsMistake(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 5, 1))
	d.HandleQuery(Query{From: 1, Mistake: []tagset.Entry{{ID: 3, Tag: 5}}})
	d.HandleQuery(Query{From: 2, Suspected: []tagset.Entry{{ID: 3, Tag: 6}}})
	if !d.IsSuspected(3) {
		t.Error("fresher suspicion not adopted over mistake")
	}
	if len(mistakes(d)) != 0 {
		t.Errorf("mistake set = %v, want empty (line 28)", mistakes(d))
	}
}

// TestPaperExampleFigure1 replays the §4.4 example of the protocol family:
// nodes B and C independently suspect a crashed A with different counters
// (5 and 10); when the information meets, the higher counter wins everywhere
// and the lower is discarded.
func TestPaperExampleFigure1(t *testing.T) {
	const (
		a ident.ID = 0
		b ident.ID = 1
		c ident.ID = 2
	)
	n, f := 5, 1
	mk := func(self ident.ID, counter tagset.Tag) *Detector {
		d := mustDetector(t, knownCfg(self, n, f))
		for d.counter < counter { // advance counter via empty full rounds
			runRound(t, d, otherIDs(n, self)...)
		}
		return d
	}
	dB := mk(b, 5)
	dC := mk(c, 10)

	// A crashes: B and C each run a round without A's response.
	runRound(t, dB, respondersExcept(n, b, a)...)
	runRound(t, dC, respondersExcept(n, c, a)...)

	tagB, _ := mustGet(t, dB, a)
	tagC, _ := mustGet(t, dC, a)
	if tagB != 5 || tagC != 10 {
		t.Fatalf("suspicion tags B=%d C=%d, want 5 and 10", tagB, tagC)
	}

	// B's query reaches C: C discards the older ⟨A,5⟩.
	dC.HandleQuery(dB.BeginRound())
	if got, _ := mustGet(t, dC, a); got != 10 {
		t.Errorf("C's tag after B's query = %d, want 10 (discard older)", got)
	}

	// C's query reaches B: B upgrades to ⟨A,10⟩.
	dB2 := dB // B still has an open round; T2 runs concurrently in the paper
	dB2.HandleQuery(dC.BeginRound())
	if got, _ := mustGet(t, dB2, a); got != 10 {
		t.Errorf("B's tag after C's query = %d, want 10 (upgrade)", got)
	}
}

// otherIDs returns all ids in [0,n) except self.
func otherIDs(n int, self ident.ID) []ident.ID {
	out := make([]ident.ID, 0, n-1)
	for i := 0; i < n; i++ {
		if ident.ID(i) != self {
			out = append(out, ident.ID(i))
		}
	}
	return out
}

// respondersExcept returns all ids in [0,n) except self and except skip.
func respondersExcept(n int, self, skip ident.ID) []ident.ID {
	out := make([]ident.ID, 0, n-1)
	for _, id := range otherIDs(n, self) {
		if id != skip {
			out = append(out, id)
		}
	}
	return out
}

func TestMobilityEviction(t *testing.T) {
	cfg := Config{Self: 0, Membership: UnknownMembership, D: 3, F: 1, Mobility: true}
	d := mustDetector(t, cfg)
	// Learn p5 and p6 via their queries.
	d.HandleQuery(Query{From: 5})
	d.HandleQuery(Query{From: 6})
	if !d.Known().Has(5) || !d.Known().Has(6) {
		t.Fatal("setup: known not learned")
	}
	// A mistake about p5 carried by p6 (p6 ≠ p5) → evict p5 from known.
	d.HandleQuery(Query{From: 6, Round: 1, Mistake: []tagset.Entry{{ID: 5, Tag: 3}}})
	if d.Known().Has(5) {
		t.Error("mobility rule did not evict remote process from known")
	}
	// A mistake carried by its own originator must NOT evict.
	d.HandleQuery(Query{From: 5, Round: 2, Mistake: []tagset.Entry{{ID: 5, Tag: 4}}})
	if !d.Known().Has(5) {
		t.Error("originator's own mistake evicted it from known")
	}
}

func TestMobilityDisabledNoEviction(t *testing.T) {
	cfg := Config{Self: 0, Membership: UnknownMembership, D: 3, F: 1}
	d := mustDetector(t, cfg)
	d.HandleQuery(Query{From: 5})
	d.HandleQuery(Query{From: 6, Mistake: []tagset.Entry{{ID: 5, Tag: 3}}})
	if !d.Known().Has(5) {
		t.Error("eviction happened with Mobility disabled")
	}
}

func TestMobilityNeverEvictsSelf(t *testing.T) {
	cfg := Config{Self: 5, Membership: UnknownMembership, D: 3, F: 1, Mobility: true}
	d := mustDetector(t, cfg)
	d.HandleQuery(Query{From: 6, Mistake: []tagset.Entry{{ID: 5, Tag: 3}}})
	if !d.Known().Has(5) {
		t.Error("process evicted itself from its own known set")
	}
}

func TestDisableTagsAblation(t *testing.T) {
	cfg := knownCfg(0, 5, 1)
	cfg.DisableTags = true
	d := mustDetector(t, cfg)
	// Fresh suspicion, then a STALE mistake: with tags disabled the stale
	// mistake is applied anyway — exactly the pathology the tags prevent.
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 3, Tag: 8}}})
	d.HandleQuery(Query{From: 2, Mistake: []tagset.Entry{{ID: 3, Tag: 1}}})
	if d.IsSuspected(3) {
		t.Error("with tags disabled, stale mistake should have cleared the suspicion")
	}
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 3, Tag: 2}}})
	if !d.IsSuspected(3) {
		t.Error("with tags disabled, stale suspicion should resurrect")
	}
}

type recordingObserver struct {
	events []Event
}

func (r *recordingObserver) FDEvent(e Event) { r.events = append(r.events, e) }

func TestObserverEvents(t *testing.T) {
	obs := &recordingObserver{}
	cfg := knownCfg(0, 4, 1)
	cfg.Observer = obs
	d := mustDetector(t, cfg)

	runRound(t, d, 1, 2) // suspect p3 locally
	if len(obs.events) != 1 {
		t.Fatalf("events = %v, want 1 local suspect", obs.events)
	}
	e := obs.events[0]
	if e.Kind != Suspect || e.Subject != 3 || e.Source != LocalDetection {
		t.Errorf("event = %+v", e)
	}

	// Gossip restore.
	d.HandleQuery(Query{From: 1, Mistake: []tagset.Entry{{ID: 3, Tag: 0}}})
	if len(obs.events) != 2 {
		t.Fatalf("events = %v, want 2", obs.events)
	}
	if obs.events[1].Kind != Restore || obs.events[1].Source != Gossip {
		t.Errorf("restore event = %+v", obs.events[1])
	}

	// Gossip suspect of a new process.
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 2, Tag: 4}}})
	if len(obs.events) != 3 || obs.events[2].Kind != Suspect || obs.events[2].Source != Gossip {
		t.Fatalf("events = %+v", obs.events)
	}
	// Tag upgrade of an already-suspected process emits no event.
	d.HandleQuery(Query{From: 1, Suspected: []tagset.Entry{{ID: 2, Tag: 9}}})
	if len(obs.events) != 3 {
		t.Errorf("tag upgrade emitted an event: %+v", obs.events[3:])
	}
}

func TestStringers(t *testing.T) {
	if KnownMembership.String() != "known" || UnknownMembership.String() != "unknown" {
		t.Error("Membership.String")
	}
	if Membership(9).String() == "" {
		t.Error("invalid Membership.String empty")
	}
	if Suspect.String() != "suspect" || Restore.String() != "restore" || EventKind(9).String() == "" {
		t.Error("EventKind.String")
	}
	if LocalDetection.String() != "local" || Gossip.String() != "gossip" ||
		SelfRefutation.String() != "self-refutation" || Source(9).String() == "" {
		t.Error("Source.String")
	}
	q := Query{From: 1, Round: 2, Suspected: []tagset.Entry{{ID: 3, Tag: 4}}}
	if q.String() != "QUERY(from=p1 round=2 susp=1 mist=0)" {
		t.Errorf("Query.String = %q", q.String())
	}
	r := Response{From: 1, Round: 2}
	if r.String() != "RESPONSE(from=p1 round=2)" {
		t.Errorf("Response.String = %q", r.String())
	}
}

// TestQuickInvariants fuzzes a detector with random gossip and rounds and
// checks structural invariants the proofs rely on:
//  1. a process is never in suspected and mistake simultaneously;
//  2. a process never suspects itself;
//  3. the logical counter never decreases.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n, fmax = 6, 2
		d, err := NewDetector(knownCfg(0, n, fmax))
		if err != nil {
			return false
		}
		prevCounter := d.counter
		for step := 0; step < 150; step++ {
			switch r.Intn(3) {
			case 0: // random gossip
				q := Query{From: ident.ID(1 + r.Intn(n-1)), Round: uint64(r.Intn(10))}
				for k := 0; k < r.Intn(4); k++ {
					e := tagset.Entry{ID: ident.ID(r.Intn(n)), Tag: tagset.Tag(r.Intn(30))}
					if r.Intn(2) == 0 {
						q.Suspected = append(q.Suspected, e)
					} else {
						q.Mistake = append(q.Mistake, e)
					}
				}
				d.HandleQuery(q)
			case 1: // full round with random responders
				if d.RoundOpen() {
					break
				}
				q := d.BeginRound()
				perm := r.Perm(n - 1)
				quorum := d.cfg.Quorum()
				quorumExtra := quorum - 1 + r.Intn(n-quorum+1)
				for i := 0; i < quorumExtra && i < len(perm); i++ {
					d.HandleResponse(Response{From: ident.ID(perm[i] + 1), Round: q.Round})
				}
				if !d.QuorumMet() {
					// drain: answer with everyone to close the round
					for i := 1; i < n; i++ {
						d.HandleResponse(Response{From: ident.ID(i), Round: q.Round})
					}
				}
				d.EndRound()
			case 2: // stray responses
				d.HandleResponse(Response{From: ident.ID(r.Intn(n)), Round: uint64(r.Intn(5))})
			}

			if d.IsSuspected(0) {
				return false // invariant 2
			}
			// Invariant 1 holds by construction of the table; it is still
			// asserted on what a query would carry and on Suspects.
			susp, mist := d.tags.Entries()
			ids := d.Suspects()
			if ids.Len() != len(susp) {
				return false
			}
			for _, e := range susp {
				if !ids.Has(e.ID) {
					return false
				}
			}
			for _, e := range mist {
				if ids.Has(e.ID) {
					return false // invariant 1
				}
			}
			if d.counter < prevCounter {
				return false // invariant 3
			}
			prevCounter = d.counter
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRound(b *testing.B) {
	d, err := NewDetector(knownCfg(0, 32, 10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := d.BeginRound()
		for j := 1; j < 32; j++ {
			d.HandleResponse(Response{From: ident.ID(j), Round: q.Round})
		}
		d.EndRound()
	}
}

// steadyMistakes is the query a settled churn run re-offers every round:
// every other process in mistake at a tag the receiver already holds.
func steadyMistakes(n int) Query {
	q := Query{From: 1, Round: 1}
	for i := 1; i < n; i++ {
		q.Mistake = append(q.Mistake, tagset.Entry{ID: ident.ID(i), Tag: tagset.Tag(i)})
	}
	return q
}

// suspicions16 names p2..p17 suspected at tags base+2..base+17.
func suspicions16(base tagset.Tag) Query {
	q := Query{From: 1, Round: 1}
	for i := 2; i < 18; i++ {
		q.Suspected = append(q.Suspected, tagset.Entry{ID: ident.ID(i), Tag: base + tagset.Tag(i)})
	}
	return q
}

// BenchmarkHandleQuery is the T2 row of the layer ledger (docs/BENCHMARKS.md):
// one received query merged, by what it carries. suspected16 re-offers 16
// suspicions the detector already holds (every guard says no); mistakes-steady
// re-offers every other process in mistake at the tag already held — what a
// settled churn run sends every round (every guard says yes, nothing changes);
// mistakes-half-fresher raises the tag of every other one of those mistakes
// before each call, so half the entries are written.
func BenchmarkHandleQuery(b *testing.B) {
	for _, n := range []int{32, 128} {
		for _, q := range []struct {
			name  string
			query Query
			bump  bool
		}{
			{"suspected16", suspicions16(0), false},
			{fmt.Sprintf("mistakes%d-steady", n-1), steadyMistakes(n), false},
			{fmt.Sprintf("mistakes%d-half-fresher", n-1), steadyMistakes(n), true},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, q.name), func(b *testing.B) {
				d, err := NewDetector(knownCfg(0, n, n/3))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if q.bump {
						for j := 0; j < len(q.query.Mistake); j += 2 {
							q.query.Mistake[j].Tag++
						}
					}
					d.HandleQuery(q.query)
				}
			})
		}
	}
}

func TestAbortRound(t *testing.T) {
	d := mustDetector(t, knownCfg(0, 3, 1))
	q := d.BeginRound()
	d.AbortRound()
	if d.RoundOpen() {
		t.Error("round still open after abort")
	}
	if d.HandleResponse(Response{From: 1, Round: q.Round}) {
		t.Error("response to the aborted round counted")
	}
	// A new round starts cleanly past the aborted one.
	q2 := d.BeginRound()
	if q2.Round != q.Round+1 {
		t.Errorf("round after abort = %d, want %d", q2.Round, q.Round+1)
	}
	if d.HandleResponse(Response{From: 1, Round: q.Round}) {
		t.Error("stale response for the aborted round counted against the new one")
	}
	// Repeated aborts are harmless, and a further round still opens.
	d.AbortRound()
	d.AbortRound()
	if d.RoundOpen() {
		t.Error("round open after double abort")
	}
	if q3 := d.BeginRound(); q3.Round != q.Round+2 {
		t.Errorf("round after second abort = %d, want %d", q3.Round, q.Round+2)
	}
}
