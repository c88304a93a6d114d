package core

import (
	"math"
	"slices"
	"testing"

	"asyncfd/internal/core/tagset"
	"asyncfd/internal/ident"
)

// fuzzIDs are the ids a script byte names: self (p0), the rest of an
// eight-process membership, one id past the first bitset word of the
// reference, and ids the table refuses.
var fuzzIDs = [...]ident.ID{0, 1, 2, 3, 4, 5, 6, 7, 63, 130, tagset.Limit, ident.Nil}

// fuzzTag maps a script byte to a tag: mostly small, so that ties are
// common, and a few just below the top of the range, so that the counter
// bumps of lines 10–13 and 23–25 wrap.
func fuzzTag(b byte) tagset.Tag {
	if b >= 0xf0 {
		return math.MaxUint64 - tagset.Tag(b&15)
	}
	return tagset.Tag(b & 15)
}

// FuzzTableMatchesSets holds the Detector, whose suspected and mistake sets
// are one tagset.Table, to the refDetector over the two refSets it replaced
// (reference_test.go). The script's first byte picks the configuration: bit
// 0 the DisableTags ablation, bit 1 Mobility, bit 2 unknown membership
// (d=3, f=1; else known, n=8, f=2). Then each 3-byte step [op, a, b]:
//
//   - op%4 == 0: a query from fuzzIDs[a/12%12] carrying the suspicion
//     ⟨fuzzIDs[a%12], fuzzTag(b)⟩: line 22's guard, which the ablation
//     skips, then lines 23–28, the refutation of lines 23–25 when it names
//     self;
//   - op%4 == 1: the same with a mistake: line 33's guard, lines 34–35 and
//     Mobility's eviction;
//   - op%4 == 2: a round answered by the processes p1..p8 whose bit is set
//     in a: BeginRound's query must carry the reference's two sets, and a
//     round that meets its quorum runs the suspicion scan, where a mistake is
//     superseded with the counter bump of lines 10–13;
//   - op%4 == 3: a checkpoint: the detector is copied, run ahead on junk and
//     restored, so a copy that shared storage would show.
//
// After every step the emitted transitions, the counter, both sets, the
// suspicion output and the known set must agree. Steps past the 64th are
// ignored.
func FuzzTableMatchesSets(f *testing.F) {
	f.Fuzz(runT2Script)
}

func runT2Script(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	obs := &recordingObserver{}
	cfg := Config{Self: 0, Membership: KnownMembership, N: 8, F: 2, DisableTags: script[0]&1 != 0, Mobility: script[0]&2 != 0, Observer: obs}
	if script[0]&4 != 0 {
		cfg.Membership, cfg.N, cfg.D, cfg.F = UnknownMembership, 0, 3, 1
	}
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refDetector{
		self: 0, quorum: cfg.Quorum(), noTags: cfg.DisableTags, mobility: cfg.Mobility,
		suspected: &refSet{}, mistake: &refSet{}, known: d.Known(),
	}
	for step, i := 0, 1; i+3 <= len(script) && step < 64; step, i = step+1, i+3 {
		op, a, b := script[i]%4, script[i+1], script[i+2]
		e := tagset.Entry{ID: fuzzIDs[int(a)%len(fuzzIDs)], Tag: fuzzTag(b)}
		q := Query{From: fuzzIDs[int(a)/len(fuzzIDs)%len(fuzzIDs)], Round: uint64(step)}
		switch op {
		case 0:
			q.Suspected = []tagset.Entry{e}
		case 1:
			q.Mistake = []tagset.Entry{e}
		}
		switch op {
		case 0, 1:
			d.HandleQuery(q)
			ref.handleQuery(q)
		case 2:
			var responders ident.Set
			for bit := 0; bit < 8; bit++ {
				if a&(1<<bit) != 0 {
					responders.Add(ident.ID(bit + 1))
				}
			}
			rq := d.BeginRound()
			if rsusp, rmist := ref.suspected.Entries(), ref.mistake.Entries(); !slices.Equal(rq.Suspected, rsusp) || !slices.Equal(rq.Mistake, rmist) {
				t.Fatalf("step %d: the query carries %v and %v, the sets hold %v and %v", step, rq.Suspected, rq.Mistake, rsusp, rmist)
			}
			responders.ForEach(func(id ident.ID) bool {
				d.HandleResponse(Response{From: id, Round: rq.Round})
				return true
			})
			if d.QuorumMet() {
				d.EndRound()
			} else {
				d.AbortRound()
			}
			ref.round(responders)
		case 3:
			var snap detectorState
			d.detectorState.copyTo(&snap)
			seen := len(obs.events)
			d.HandleQuery(Query{From: 5, Suspected: []tagset.Entry{{ID: 1, Tag: 200}, {ID: 0, Tag: 201}}, Mistake: []tagset.Entry{{ID: 2, Tag: 200}}})
			rq := d.BeginRound()
			d.HandleResponse(Response{From: 1, Round: rq.Round})
			d.AbortRound()
			snap.copyTo(&d.detectorState)
			obs.events = obs.events[:seen]
		}
		susp, mist := d.tags.Entries()
		rsusp, rmist := ref.suspected.Entries(), ref.mistake.Entries()
		if !slices.Equal(obs.events, ref.events) || d.counter != ref.counter || !slices.Equal(susp, rsusp) || !slices.Equal(mist, rmist) ||
			!d.Suspects().Equal(ref.suspected.IDSet()) || !d.known.Equal(ref.known) {
			const state = "events %v counter %d suspected %v mistake %v suspects %v known %v"
			t.Fatalf("step %d (op %d, %v from %v, config %+v):\n got "+state+"\nwant "+state, step, op, e, q.From, cfg,
				obs.events, d.counter, susp, mist, d.Suspects(), d.known, ref.events, ref.counter, rsusp, rmist, ref.suspected.IDSet(), ref.known)
		}
	}
}
