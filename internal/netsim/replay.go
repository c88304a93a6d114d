package netsim

// replay.go is the recorded-trace delay model: instead of drawing latencies
// from a parametric distribution, Replay plays back a trace.DelaySeries —
// timestamped RTT/loss samples captured from a real network or generated by
// trace.Synthetic — deterministically per link: a send costs one hash of
// the link and one packed read of the series' index. Scenario configs
// (asyncfd-scenario/v1) select it with {"model": "trace", ...}.

import (
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
// the endpoint pair — so different links experience different slices of the
// trace, yet every decision is a pure function of (series, link, now):
//
//   - no RNG draws, ever — a lossy trace cannot desync the simulation's
//     random stream;
//   - no cursor: a send is one hash of the link and one read of the
//     series' immutable index (trace.DelaySeries.OneWay: one packed delay
//     per bucket of the span), so kernel Snapshot/Restore forking has no
//     replay state to clone;
//   - the same series and link always see the same delays, across runs,
//     across restores, and at any -parallel width.
//
// Samples record round-trip times; the one-way delay applied to a message
// is RTT/2. A sample marked Loss drops the message outright.
type Replay struct {
	Series *trace.DelaySeries
}

// linkPhase spreads links across the series: a 64-bit FNV-1a hash of the
// ordered endpoint pair reduced modulo Span. Hashing (not e.g. from+to)
// keeps the two directions of a link decorrelated.
func (p Replay) linkPhase(from, to ident.ID) time.Duration {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, id := range [2]ident.ID{from, to} {
		for shift := 0; shift < 32; shift += 8 { // little-endian bytes of the id
			h = (h ^ uint64(byte(id>>shift))) * prime64
		}
	}
	return time.Duration(h % uint64(p.Series.Span))
}

// Delay implements DelayModel. The *rand.Rand is deliberately unused: see
// the type comment. Loss samples are ignored on this path; the network
// consults DelayLoss instead when the model is installed as Config.Delay.
func (p Replay) Delay(_ *rand.Rand, from, to ident.ID, now time.Duration) time.Duration {
	d, _ := p.Series.OneWay(now + p.linkPhase(from, to))
	return d
}

// DelayLoss implements LossModel.
func (p Replay) DelayLoss(_ *rand.Rand, from, to ident.ID, now time.Duration) (time.Duration, bool) {
	return p.Series.OneWay(now + p.linkPhase(from, to))
}

// Compile-time interface checks.
var (
	_ DelayModel = Replay{}
	_ LossModel  = Replay{}
)
