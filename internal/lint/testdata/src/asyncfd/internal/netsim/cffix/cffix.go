// Package cffix seeds clonefields fixtures: structs that declare Snapshot and
// keep a field outside their one embedded run-state struct without a reason,
// plus the shapes the rule accepts or does not look at.
package cffix

// state is a run-state struct: Snapshot and Restore copy it whole.
type state struct {
	seq   uint64
	inbox []int
}

func (s *state) copyTo(dst *state) {
	dst.seq = s.seq
	dst.inbox = append(dst.inbox[:0], s.inbox...)
}

// network is the accepted shape: one embedded state, and every other field
// says why it is not checkpointed.
type network struct {
	state

	cfg int //fdlint:allow clonefields immutable config, set once at construction
	// scratch is dead between calls.
	//fdlint:allow clonefields scratch buffer; contents are dead between calls
	scratch []int
}

func (n *network) Snapshot() any {
	var s state
	n.state.copyTo(&s)
	return &s
}

// leaky holds a mutable counter beside its run state. The annotation on the
// line above drops is cfg's, and covers cfg only.
type leaky struct { // want `leaky declares Snapshot, but field\(s\) drops sit outside its one embedded run-state struct`
	state

	cfg   int //fdlint:allow clonefields immutable config, set once at construction
	drops int
}

func (l *leaky) Snapshot() any { return l.state }

// sloppy's annotation has no reason, so it does not count.
type sloppy struct { // want `sloppy declares Snapshot, but field\(s\) cfg sit outside`
	state

	cfg int //fdlint:allow clonefields
}

func (s *sloppy) Snapshot() any { return s.state }

type extra struct{ hits int }

// twoStates embeds a second struct: only the first is the run state.
type twoStates struct { // want `twoStates declares Snapshot, but field\(s\) extra sit outside`
	state
	extra
}

func (t *twoStates) Snapshot() any { return t.state }

// wide has no run-state struct, and each field of a multi-name line is named.
type wide struct { // want `wide declares Snapshot, but field\(s\) a, b, c sit outside`
	a, b int
	c    int
}

func (w wide) Snapshot() any { return w }

// genState and genNode are generic, as monitor.Node is: still checked.
type genState[R any] struct{ rules []R }

type genNode[R any] struct { // want `genNode declares Snapshot, but field\(s\) last sit outside`
	env  int //fdlint:allow clonefields immutable wiring, set once at construction
	last R
	genState[R]
}

func (g *genNode[R]) Snapshot() any { return g.genState }

// wrapper's Snapshot is only promoted from the embedded pointer; the
// runtime it wraps is what declares one, so wrapper is not checked.
type wrapper struct {
	*network
	label string
}

// padded ignores the blank padding field.
type padded struct {
	_ [8]byte
	state
}

func (p *padded) Snapshot() any { return p.state }

// plain declares no Snapshot, so what it holds is not the rule's business.
type plain struct {
	state
	hits int
}

var _ = wrapper{}
var _ = plain{}
