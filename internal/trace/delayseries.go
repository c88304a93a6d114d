package trace

// delayseries.go owns the recorded-trace delay format of the scenario
// subsystem: a DelaySeries is a timestamped sequence of RTT/loss samples —
// captured from a real network or generated synthetically — that
// internal/netsim's Replay delay model plays back deterministically per
// link instead of drawing from a parametric distribution. Replay adds the
// link's phase, read from a table it builds once per cluster, to the send
// time and asks OneWay, which answers from an index built once per series:
// one packed delay per bucket of the span, searched only where a sample
// falls inside a bucket. The JSON form ("asyncfd-trace/v1") can be embedded
// inline in an asyncfd-scenario/v1 config of the cluster or consensus
// program (the topology program refuses it); see docs/BENCHMARKS.md,
// "Scenario configs".

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// DelaySeriesSchema is the JSON schema identifier of the trace format.
const DelaySeriesSchema = "asyncfd-trace/v1"

// MaxDuration bounds every duration a trace may carry (span, sample offsets,
// RTTs). It keeps replay arithmetic — phase offsets, wrap-around modulo,
// now+delay scheduling — far away from time.Duration overflow no matter what
// a config file claims.
const MaxDuration = 24 * time.Hour

// DelaySample is one trace observation: at offset At into the series the
// link's round-trip time measured RTT, and Loss records whether the probe
// was lost.
type DelaySample struct {
	At   time.Duration
	RTT  time.Duration
	Loss bool
}

// DelaySeries is a recorded (or synthesized) delay trace. Samples are
// strictly ascending in At and all fall inside [0, Span); replay wraps the
// series modulo Span, so a short capture loops over a long simulation. A
// series is immutable once OneWay has been called on it.
type DelaySeries struct {
	Span    time.Duration
	Samples []DelaySample

	// The bucket index: derived from Span and Samples on first use, never
	// written again, shared by every reader of the series.
	indexOnce sync.Once
	width     time.Duration // bucket b covers offsets [b·width, (b+1)·width)
	// oneWay[b] is OneWay's answer for every offset in bucket b, packed:
	// the governing sample's RTT/2, or −RTT/2−1 when it is a loss. It is
	// split when a sample falls strictly inside the bucket, so that the
	// answer changes within it.
	oneWay []int64
}

// split marks a bucket whose answer sampleAt must search for.
const split = math.MinInt64

// Validate checks the structural invariants replay relies on. Errors name
// the offending field path in the JSON form.
func (s *DelaySeries) Validate() error {
	if s == nil {
		return fmt.Errorf("trace: series: missing")
	}
	if s.Span <= 0 {
		return fmt.Errorf("trace: series.span_us: must be positive, got %v", s.Span)
	}
	if s.Span > MaxDuration {
		return fmt.Errorf("trace: series.span_us: %v exceeds the %v bound", s.Span, MaxDuration)
	}
	if len(s.Samples) == 0 {
		return fmt.Errorf("trace: series.samples: must not be empty")
	}
	prev := time.Duration(-1)
	for i, smp := range s.Samples {
		if smp.At < 0 || smp.At >= s.Span {
			return fmt.Errorf("trace: series.samples[%d].at_us: %v outside [0, span)", i, smp.At)
		}
		if smp.At <= prev {
			return fmt.Errorf("trace: series.samples[%d].at_us: not strictly ascending", i)
		}
		if smp.RTT < 0 {
			return fmt.Errorf("trace: series.samples[%d].rtt_us: negative", i)
		}
		if smp.RTT > MaxDuration {
			return fmt.Errorf("trace: series.samples[%d].rtt_us: %v exceeds the %v bound", i, smp.RTT, MaxDuration)
		}
		prev = smp.At
	}
	return nil
}

// OneWay returns the one-way delay of a message sent at offset t into the
// series, half the governing sample's RTT, and whether the message is
// delivered: false when that sample is a loss. The governing sample is the
// last one whose At is ≤ t mod Span, wrapping to the final sample for
// offsets before the first. The answer is a pure function of (series, t) —
// an immutable index built once per series, no cursor — so replay is
// trivially identical across runs, across the simulation Snapshot/Restore
// fork path and across workers sharing the series.
//
// The index cuts [0, Span) into one equal bucket per sample and keeps each
// bucket's answer packed in one int64, so a uniformly ticked series, which
// has its samples on bucket starts, answers with one 8-byte read. Only a
// bucket with a sample strictly inside it searches.
func (s *DelaySeries) OneWay(t time.Duration) (d time.Duration, delivered bool) {
	s.indexOnce.Do(s.buildIndex)
	off := t % s.Span
	if off < 0 {
		off += s.Span
	}
	v := s.oneWay[off/s.width]
	switch {
	case v == split:
		smp := s.sampleAt(off)
		return smp.RTT / 2, !smp.Loss
	case v < 0:
		return time.Duration(-v - 1), false
	}
	return time.Duration(v), true
}

// sampleAt returns the sample governing off ∈ [0, Span), found by binary
// search of the whole series: the predecessor of the first sample with
// At > off.
func (s *DelaySeries) sampleAt(off time.Duration) DelaySample {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].At > off })
	if i == 0 {
		// Every sample is later than off: the series wraps, the last sample
		// of the previous cycle is still in force.
		return s.Samples[len(s.Samples)-1]
	}
	return s.Samples[i-1]
}

// buildIndex fills width, marks the split buckets in one pass over the
// samples, and packs every other bucket's answer.
func (s *DelaySeries) buildIndex() {
	n := len(s.Samples)
	s.width = (s.Span + time.Duration(n) - 1) / time.Duration(n) // ⌈Span/n⌉: n buckets cover [0, Span)
	s.oneWay = make([]int64, n)
	for _, smp := range s.Samples {
		if smp.At%s.width != 0 {
			s.oneWay[smp.At/s.width] = split
		}
	}
	for b, v := range s.oneWay {
		if v == split {
			continue
		}
		smp := s.sampleAt(time.Duration(b) * s.width)
		s.oneWay[b] = int64(smp.RTT / 2)
		if smp.Loss {
			s.oneWay[b] = -int64(smp.RTT/2) - 1
		}
	}
}

// jsonDelaySample is the wire form of one sample (microsecond fields).
type jsonDelaySample struct {
	AtUS  int64 `json:"at_us"`
	RTTUS int64 `json:"rtt_us"`
	Loss  bool  `json:"loss,omitempty"`
}

// jsonDelaySeries is the wire form of a series.
type jsonDelaySeries struct {
	Schema  string            `json:"schema"`
	SpanUS  int64             `json:"span_us"`
	Samples []jsonDelaySample `json:"samples"`
}

// Encode renders the series in its committed JSON form.
func (s *DelaySeries) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	doc := jsonDelaySeries{
		Schema:  DelaySeriesSchema,
		SpanUS:  int64(s.Span / time.Microsecond),
		Samples: make([]jsonDelaySample, len(s.Samples)),
	}
	for i, smp := range s.Samples {
		doc.Samples[i] = jsonDelaySample{
			AtUS:  int64(smp.At / time.Microsecond),
			RTTUS: int64(smp.RTT / time.Microsecond),
			Loss:  smp.Loss,
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// ParseDelaySeries decodes and validates the committed JSON form. Unknown
// fields and schema mismatches are errors, never silently ignored.
func ParseDelaySeries(data []byte) (*DelaySeries, error) {
	var doc jsonDelaySeries
	if err := strictUnmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: series: %w", err)
	}
	if doc.Schema != DelaySeriesSchema {
		return nil, fmt.Errorf("trace: series.schema: unknown schema version %q (want %q)", doc.Schema, DelaySeriesSchema)
	}
	// Bound the raw microsecond fields before converting: a value past the
	// bound would overflow the duration multiply and silently wrap.
	maxUS := int64(MaxDuration / time.Microsecond)
	if doc.SpanUS < 0 || doc.SpanUS > maxUS {
		return nil, fmt.Errorf("trace: series.span_us: %d outside [0, %d]", doc.SpanUS, maxUS)
	}
	for i, smp := range doc.Samples {
		if smp.AtUS < 0 || smp.AtUS > maxUS {
			return nil, fmt.Errorf("trace: series.samples[%d].at_us: %d outside [0, %d]", i, smp.AtUS, maxUS)
		}
		if smp.RTTUS < 0 || smp.RTTUS > maxUS {
			return nil, fmt.Errorf("trace: series.samples[%d].rtt_us: %d outside [0, %d]", i, smp.RTTUS, maxUS)
		}
	}
	s := &DelaySeries{
		Span:    time.Duration(doc.SpanUS) * time.Microsecond,
		Samples: make([]DelaySample, len(doc.Samples)),
	}
	for i, smp := range doc.Samples {
		s.Samples[i] = DelaySample{
			At:   time.Duration(smp.AtUS) * time.Microsecond,
			RTT:  time.Duration(smp.RTTUS) * time.Microsecond,
			Loss: smp.Loss,
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// SyntheticConfig parameterizes the synthetic heavy-tailed trace generator:
// Count samples spaced Tick apart, each an independent Base + Pareto(Scale,
// Alpha) round-trip (capped at Cap when positive) with Bernoulli(LossRate)
// losses, all drawn from a private RNG seeded with Seed — generation is a
// pure function of the config, so a config embedding a synthetic spec names
// the exact same trace on every machine.
type SyntheticConfig struct {
	Seed     int64
	Count    int
	Tick     time.Duration
	Base     time.Duration
	Scale    time.Duration
	Alpha    float64
	Cap      time.Duration
	LossRate float64
}

// Validate checks the generator parameters, naming offending fields.
func (c SyntheticConfig) Validate() error {
	if c.Count <= 0 || c.Count > 1<<20 {
		return fmt.Errorf("trace: synthetic.count: must be in [1, %d], got %d", 1<<20, c.Count)
	}
	if c.Tick <= 0 {
		return fmt.Errorf("trace: synthetic.tick_us: must be positive, got %v", c.Tick)
	}
	if c.Tick > MaxDuration/time.Duration(c.Count) {
		return fmt.Errorf("trace: synthetic.tick_us: count*tick exceeds the %v span bound", MaxDuration)
	}
	if c.Base < 0 || c.Base > MaxDuration {
		return fmt.Errorf("trace: synthetic.base_us: outside [0, %v]", MaxDuration)
	}
	if c.Scale < 0 || c.Scale > MaxDuration {
		return fmt.Errorf("trace: synthetic.scale_us: outside [0, %v]", MaxDuration)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("trace: synthetic.alpha: must be positive, got %v", c.Alpha)
	}
	if c.Cap < 0 || c.Cap > MaxDuration {
		return fmt.Errorf("trace: synthetic.cap_us: outside [0, %v]", MaxDuration)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("trace: synthetic.loss: must be in [0, 1), got %v", c.LossRate)
	}
	return nil
}

// Synthetic generates a heavy-tailed delay trace from cfg. The Pareto tail
// (RTT = Base + Scale·U^(-1/Alpha)) is the adversarial regime for
// timer-based detectors: any fixed timeout is violated with constant
// probability, exactly the condition the paper's time-free detector is
// designed to survive.
func Synthetic(cfg SyntheticConfig) (*DelaySeries, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	//fdlint:allow rngdiscipline seeded synthesizer runs at config-build time, outside any kernel
	r := rand.New(rand.NewSource(cfg.Seed))
	s := &DelaySeries{
		Span:    time.Duration(cfg.Count) * cfg.Tick,
		Samples: make([]DelaySample, cfg.Count),
	}
	for i := 0; i < cfg.Count; i++ {
		u := r.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		// The Pareto draw can reach +Inf (and 0·Inf = NaN when Scale is 0);
		// clamp it in float space before the duration conversion can wrap.
		tail := float64(cfg.Scale) * math.Pow(u, -1/cfg.Alpha)
		if !(tail < float64(MaxDuration)) {
			tail = float64(MaxDuration)
		}
		rtt := cfg.Base + time.Duration(tail)
		if cfg.Cap > 0 && rtt > cfg.Cap {
			rtt = cfg.Cap
		}
		if rtt > MaxDuration {
			rtt = MaxDuration
		}
		loss := cfg.LossRate > 0 && r.Float64() < cfg.LossRate
		s.Samples[i] = DelaySample{At: time.Duration(i) * cfg.Tick, RTT: rtt, Loss: loss}
	}
	return s, nil
}
