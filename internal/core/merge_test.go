package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"asyncfd/internal/core/tagset"
	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
)

// TestHandleQuerySkipsInvalidIDs: an entry about no process — ident.Nil off
// a buggy peer, any negative id — is not information. It must not be
// "adopted" (the sets refuse it), must not reach the observer, and must not
// stop the rest of the query from being handled.
func TestHandleQuerySkipsInvalidIDs(t *testing.T) {
	for _, cfg := range []Config{
		knownCfg(0, 4, 1),
		{Self: 0, Membership: KnownMembership, N: 4, F: 1, DisableTags: true},
		{Self: 0, Membership: UnknownMembership, D: 3, F: 1, Mobility: true},
	} {
		obs := &recordingObserver{}
		cfg.Observer = obs
		d := mustDetector(t, cfg)
		q := Query{
			From:      2,
			Round:     9,
			Suspected: []tagset.Entry{{ID: ident.Nil, Tag: 3}, {ID: -5, Tag: 1}},
			Mistake:   []tagset.Entry{{ID: ident.Nil, Tag: 4}, {ID: -5, Tag: 2}},
		}
		learned := mustDetector(t, cfg)
		learned.known.Add(2) // all the query may teach
		want := dump(learned)
		for i := 0; i < 5; i++ {
			if r := d.HandleQuery(q); r != (Response{From: 0, Round: 9}) {
				t.Errorf("%v: response = %+v, want {p0 9}", cfg.Membership, r)
			}
		}
		if len(obs.events) != 0 {
			t.Errorf("%v tags=%v: entries about no process emitted %v", cfg.Membership, !cfg.DisableTags, obs.events)
		}
		if got := dump(d); got != want {
			t.Errorf("%v tags=%v: state %s, want %s (sender learned, nothing else)", cfg.Membership, !cfg.DisableTags, got, want)
		}
	}
}

// TestHostileIDsSizeNothing: ids arrive off a socket, and T1/T2 index by
// them. The largest id a QUERY or RESPONSE can name — as sender and as entry
// — must cost no more than a small constant and leave the detector working.
func TestHostileIDsSizeNothing(t *testing.T) {
	const huge = ident.ID(1 << 30)
	d := mustDetector(t, Config{Self: 0, Membership: UnknownMembership, D: 3, F: 1, Mobility: true})
	q := Query{
		From:      huge,
		Round:     1,
		Suspected: []tagset.Entry{{ID: huge, Tag: 5}, {ID: tagset.Limit, Tag: 5}},
		Mistake:   []tagset.Entry{{ID: huge, Tag: 6}, {ID: tagset.Limit, Tag: 6}},
	}
	round := d.BeginRound().Round
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := d.HandleQuery(q)
	counted := d.HandleResponse(Response{From: huge, Round: round})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a query and a response naming p%d allocated %d bytes, want < 64 KiB", huge, got)
	}
	if resp != (Response{From: 0, Round: 1}) {
		t.Errorf("response = %+v", resp)
	}
	if counted {
		t.Error("a response from an id the detector cannot index counted toward the quorum")
	}
	if !d.Known().Equal(ident.SetOf(0)) || d.Suspects().Len() != 0 || len(mistakes(d)) != 0 {
		t.Errorf("hostile ids changed the state: %s", dump(d))
	}

	// Still a working detector: learn p1 and p2, close the round on p1's
	// response, suspect p2, take the refutation.
	d.HandleQuery(Query{From: 1, Round: 1})
	d.HandleQuery(Query{From: 2, Round: 1})
	d.HandleResponse(Response{From: 1, Round: round})
	d.EndRound()
	if !d.IsSuspected(2) {
		t.Fatalf("p2 not suspected: %s", dump(d))
	}
	d.HandleQuery(Query{From: 2, Round: 2, Mistake: []tagset.Entry{{ID: 2, Tag: 9}}})
	if d.IsSuspected(2) {
		t.Errorf("refutation ignored: %s", dump(d))
	}
}

func TestConfigRejectsIDsBeyondTheIndex(t *testing.T) {
	if err := (Config{Self: tagset.Limit, Membership: UnknownMembership, D: 3, F: 1}).Validate(); err == nil {
		t.Error("Self = tagset.Limit accepted")
	}
	if err := knownCfg(0, int(tagset.Limit)+1, 1).Validate(); err == nil {
		t.Error("N above tagset.Limit accepted")
	}
	if err := knownCfg(tagset.Limit-1, int(tagset.Limit), 1).Validate(); err != nil {
		t.Errorf("N = tagset.Limit rejected: %v", err)
	}
}

// refT2 is task T2 as HandleQuery spelled it over map[ident.ID]Tag sets
// before the store was indexed by id: guard (two lookups), then
// Has/Add/Remove. It is the oracle of TestQuickT2VsMapOracle.
type refT2 struct {
	self             ident.ID
	counter          tagset.Tag
	suspected, mistk map[ident.ID]tagset.Tag
	mobility, noTags bool
	known            ident.Set
	events           []Event
}

func (r *refT2) current(id ident.ID) (tagset.Tag, bool) {
	st, sok := r.suspected[id]
	mt, mok := r.mistk[id]
	if sok && mok {
		return max(st, mt), true
	}
	if sok {
		return st, true
	}
	return mt, mok
}

func (r *refT2) handleQuery(q Query) {
	if q.From != r.self && tagset.InRange(q.From) {
		r.known.Add(q.From)
	}
	for _, e := range q.Suspected {
		if !tagset.InRange(e.ID) {
			continue
		}
		if cur, ok := r.current(e.ID); !r.noTags && ok && cur >= e.Tag {
			continue
		}
		if e.ID == r.self {
			r.counter = max(r.counter, e.Tag+1)
			r.mistk[r.self] = r.counter
			r.events = append(r.events, Event{Kind: Restore, Subject: r.self, Tag: r.counter, Source: SelfRefutation})
			continue
		}
		_, was := r.suspected[e.ID]
		r.suspected[e.ID] = e.Tag
		delete(r.mistk, e.ID)
		if !was {
			r.events = append(r.events, Event{Kind: Suspect, Subject: e.ID, Tag: e.Tag, Source: Gossip})
		}
	}
	for _, e := range q.Mistake {
		if !tagset.InRange(e.ID) {
			continue
		}
		if cur, ok := r.current(e.ID); !r.noTags && ok && cur > e.Tag {
			continue
		}
		r.mistk[e.ID] = e.Tag
		if _, was := r.suspected[e.ID]; was {
			delete(r.suspected, e.ID)
			r.events = append(r.events, Event{Kind: Restore, Subject: e.ID, Tag: e.Tag, Source: Gossip})
		}
		if r.mobility && e.ID != q.From && e.ID != r.self {
			r.known.Remove(e.ID)
		}
	}
}

func sortedEntries(m map[ident.ID]tagset.Tag) []tagset.Entry {
	out := make([]tagset.Entry, 0, len(m))
	for id, t := range m {
		out = append(out, tagset.Entry{ID: id, Tag: t})
	}
	slices.SortFunc(out, func(a, b tagset.Entry) int { return int(a.ID) - int(b.ID) })
	return out
}

// TestQuickT2VsMapOracle feeds random queries — ids on both sides of
// tagset.Limit, invalid ones, self, ties, all three configurations — to a
// Detector and to the map oracle and holds sets, known, counter and the
// emitted events equal after every query. Between queries the detector is
// checkpointed, run ahead on junk and rolled back (the fork path of every
// async process), more than once from the same checkpoint: a Clone that
// shared storage would leak the junk into the comparison.
func TestQuickT2VsMapOracle(t *testing.T) {
	ids := []ident.ID{ident.Nil, -3, 0, 1, 2, 3, 4, 5, 63, 64, 200, tagset.Limit - 1, tagset.Limit, 1 << 30}
	randomQuery := func(r *rand.Rand) Query {
		q := Query{From: ids[r.Intn(len(ids))], Round: uint64(r.Intn(5))}
		for k := r.Intn(6); k > 0; k-- {
			e := tagset.Entry{ID: ids[r.Intn(len(ids))], Tag: tagset.Tag(r.Intn(8))}
			if r.Intn(2) == 0 {
				q.Suspected = append(q.Suspected, e)
			} else {
				q.Mistake = append(q.Mistake, e)
			}
		}
		return q
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Self: 0, Membership: UnknownMembership, D: 3, F: 1, Mobility: r.Intn(2) == 0, DisableTags: r.Intn(4) == 0}
		obs := &recordingObserver{}
		cfg.Observer = obs
		d, err := NewDetector(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := &refT2{
			self: 0, suspected: map[ident.ID]tagset.Tag{}, mistk: map[ident.ID]tagset.Tag{},
			mobility: cfg.Mobility, noTags: cfg.DisableTags, known: ident.SetOf(0),
		}
		for step := 0; step < 200; step++ {
			if r.Intn(4) == 0 {
				var snap detectorState
				d.detectorState.copyTo(&snap)
				seen := len(obs.events)
				for rep := 1 + r.Intn(2); rep > 0; rep-- {
					for k := 1 + r.Intn(4); k > 0; k-- {
						d.HandleQuery(randomQuery(r))
					}
					snap.copyTo(&d.detectorState)
				}
				obs.events = obs.events[:seen]
			}
			q := randomQuery(r)
			d.HandleQuery(q)
			ref.handleQuery(q)
			got := fmt.Sprint(d.counter, suspected(d), mistakes(d), d.known, obs.events)
			want := fmt.Sprint(ref.counter, sortedEntries(ref.suspected), sortedEntries(ref.mistk), ref.known, ref.events)
			if got != want {
				t.Logf("seed %d step %d after %+v:\n got %s\nwant %s", seed, step, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllocsHandleQuery locks task T2 at zero allocations once the sets
// cover the membership: the steady-state query that re-offers 31 mistakes at
// equal tags (all adopted, nothing changes), and 16 suspicions strictly
// fresher on every call (all adopted, tags rise).
func TestAllocsHandleQuery(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	d := mustDetector(t, knownCfg(0, 32, 10))
	steady := steadyMistakes(32)
	d.HandleQuery(steady)
	d.HandleQuery(suspicions16(0))
	d.HandleQuery(steady) // p2..p17 back in mistake: the next suspicions move them again
	if a := testing.AllocsPerRun(100, func() { d.HandleQuery(steady) }); a != 0 {
		t.Errorf("31 mistakes at equal tags: %v allocations, want 0", a)
	}
	fresher := suspicions16(0)
	if a := testing.AllocsPerRun(100, func() {
		for i := range fresher.Suspected {
			fresher.Suspected[i].Tag += 100
		}
		d.HandleQuery(fresher)
	}); a != 0 {
		t.Errorf("16 fresher suspicions: %v allocations, want 0", a)
	}
	if got := d.Suspects().Len(); got != 16 {
		t.Errorf("%d suspected after the fresher suspicions, want 16", got)
	}
}

// TestAllocsBeginRound: a query carries copies of both sets, and those two
// slices are all BeginRound allocates.
func TestAllocsBeginRound(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	d := mustDetector(t, knownCfg(0, 32, 10))
	d.HandleQuery(steadyMistakes(32))
	d.HandleQuery(suspicions16(100))
	if a := testing.AllocsPerRun(100, func() {
		d.BeginRound()
		d.AbortRound()
	}); a > 2 {
		t.Errorf("BeginRound with 16 suspected and 15 mistakes: %v allocations, want at most the 2 message slices", a)
	}
}

// TestAllocsEndRound: a round that hears from everyone — BeginRound, n−1
// responses, EndRound — allocates nothing at n=128 once the detector has run
// a round: the query carries two empty sets, and the scan suspects nobody.
func TestAllocsEndRound(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	const n = 128
	d := mustDetector(t, knownCfg(0, n, n/3))
	round := func() {
		q := d.BeginRound()
		for j := 1; j < n; j++ {
			d.HandleResponse(Response{From: ident.ID(j), Round: q.Round})
		}
		d.EndRound()
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Errorf("a full-quorum round at n=%d: %v allocations, want 0", n, a)
	}
	if len(suspected(d)) != 0 || d.RoundOpen() {
		t.Errorf("after full rounds: suspected %v, round open %v; want none, false", suspected(d), d.RoundOpen())
	}
}
