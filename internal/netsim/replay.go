package netsim

// replay.go is the recorded-trace delay model: instead of drawing latencies
// from a parametric distribution, Replay plays back a trace.DelaySeries —
// timestamped RTT/loss samples captured from a real network or generated by
// trace.Synthetic — deterministically per link: every link's phase into the
// series is hashed once, into a table NewReplay builds for the cluster, so a
// send costs one read of that table and one packed read of the series'
// index. Scenario configs (asyncfd-scenario/v1) select it with
// {"model": "trace", ...} for the cluster and consensus programs.

import (
	"fmt"
	"math/rand"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// LossModel is the optional extension of DelayModel for models that decide
// message loss themselves (e.g. from recorded loss samples) — the one way a
// link loses a message. When the network's delay model implements it
// (decided once, in New), admit() consults DelayLoss INSTEAD of the plain
// Delay call, in the same position of the admission pipeline (after
// partitions) — so models that don't implement it keep the exact RNG draw
// sequence they had before this interface existed.
type LossModel interface {
	DelayModel
	// DelayLoss samples the one-way latency of a message and reports
	// whether it is delivered at all (false = lost on the link).
	DelayLoss(r *rand.Rand, from, to ident.ID, now time.Duration) (time.Duration, bool)
}

// Replay plays a recorded delay trace back per link. Each ordered link
// (from, to) is assigned a fixed phase offset into the series — a hash of
// the endpoint pair, computed once per link when the model is built — so
// different links experience different slices of the trace, yet every
// decision is a pure function of (series, link, now):
//
//   - no RNG draws, ever — a lossy trace cannot desync the simulation's
//     random stream;
//   - no cursor: a send is one read of the link's phase from the table and
//     one read of the series' immutable index (trace.DelaySeries.OneWay:
//     one packed delay per bucket of the span), so kernel Snapshot/Restore
//     forking has no replay state to clone;
//   - the same series and link always see the same delays, across runs,
//     across restores, and at any -parallel width.
//
// Samples record round-trip times; the one-way delay applied to a message
// is RTT/2. A sample marked Loss drops the message outright. A Replay is
// built by NewReplay for a cluster of n processes; a link with an end
// outside [0, n) panics.
type Replay struct {
	series *trace.DelaySeries
	n      int
	phase  []time.Duration // phase[from·n+to] = linkPhase(series.Span, from, to)
}

// NewReplay builds the replay of series for a cluster of n processes: the
// phase of every ordered pair of ids in [0, n), 8·n² bytes.
func NewReplay(series *trace.DelaySeries, n int) *Replay {
	p := &Replay{series: series, n: n, phase: make([]time.Duration, n*n)}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			p.phase[from*n+to] = linkPhase(series.Span, ident.ID(from), ident.ID(to))
		}
	}
	return p
}

// linkPhase spreads links across a series of the given span: a 64-bit
// FNV-1a hash of the ordered endpoint pair reduced modulo span. Hashing
// (not e.g. from+to) keeps the two directions of a link decorrelated.
func linkPhase(span time.Duration, from, to ident.ID) time.Duration {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, id := range [2]ident.ID{from, to} {
		for shift := 0; shift < 32; shift += 8 { // little-endian bytes of the id
			h = (h ^ uint64(byte(id>>shift))) * prime64
		}
	}
	return time.Duration(h % uint64(span))
}

// Delay implements DelayModel. The *rand.Rand is deliberately unused: see
// the type comment. Loss samples are ignored on this path; the network
// consults DelayLoss instead when the model is installed as Config.Delay.
func (p *Replay) Delay(r *rand.Rand, from, to ident.ID, now time.Duration) time.Duration {
	d, _ := p.DelayLoss(r, from, to, now)
	return d
}

// DelayLoss implements LossModel.
func (p *Replay) DelayLoss(_ *rand.Rand, from, to ident.ID, now time.Duration) (time.Duration, bool) {
	if uint(from) >= uint(p.n) || uint(to) >= uint(p.n) {
		panic(fmt.Sprintf("netsim: Replay: link %v->%v is outside the cluster of n=%d", from, to, p.n))
	}
	return p.series.OneWay(now + p.phase[int(from)*p.n+int(to)])
}

// Compile-time interface checks.
var (
	_ DelayModel = (*Replay)(nil)
	_ LossModel  = (*Replay)(nil)
)
