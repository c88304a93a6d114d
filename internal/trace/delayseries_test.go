package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func testSeries() *DelaySeries {
	return &DelaySeries{
		Span: ms(100),
		Samples: []DelaySample{
			{At: 0, RTT: ms(2)},
			{At: ms(10), RTT: ms(4), Loss: true},
			{At: ms(50), RTT: ms(8)},
		},
	}
}

// sampleAtIndexed is the sample governing offset t as OneWay finds it when
// t's bucket is split: sampleAt, once t is folded into [0, Span).
func sampleAtIndexed(s *DelaySeries, t time.Duration) DelaySample {
	off := t % s.Span
	if off < 0 {
		off += s.Span
	}
	return s.sampleAt(off)
}

// checkOneWay fails unless OneWay(t) is the delay and delivery that the
// sample want gives.
func checkOneWay(t testing.TB, s *DelaySeries, at time.Duration, want DelaySample) {
	t.Helper()
	if d, ok := s.OneWay(at); d != want.RTT/2 || ok != !want.Loss {
		t.Fatalf("OneWay(%v) = %v,%v; the governing sample %+v gives %v,%v", at, d, ok, want, want.RTT/2, !want.Loss)
	}
}

func TestSampleAtLookup(t *testing.T) {
	s := testSeries()
	cases := []struct {
		t    time.Duration
		rtt  time.Duration
		loss bool
	}{
		{0, ms(2), false},
		{ms(5), ms(2), false},
		{ms(10), ms(4), true}, // exactly on a sample boundary
		{ms(49), ms(4), true}, // last sample with At <= t governs
		{ms(50), ms(8), false},
		{ms(99), ms(8), false},
		{ms(100), ms(2), false}, // wraps modulo Span
		{ms(105), ms(2), false},
		{ms(250), ms(8), false}, // 250 mod 100 = 50
	}
	for _, tc := range cases {
		got := sampleAtIndexed(s, tc.t)
		if got.RTT != tc.rtt || got.Loss != tc.loss {
			t.Errorf("sampleAt(%v) = {rtt %v loss %v}, want {rtt %v loss %v}",
				tc.t, got.RTT, got.Loss, tc.rtt, tc.loss)
		}
		checkOneWay(t, s, tc.t, got)
	}
}

func TestSampleAtWrapBeforeFirstSample(t *testing.T) {
	// A series whose first sample sits at a positive offset: lookups before
	// it wrap to the final sample of the previous cycle.
	s := &DelaySeries{
		Span: ms(100),
		Samples: []DelaySample{
			{At: ms(20), RTT: ms(3)},
			{At: ms(60), RTT: ms(7)},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := sampleAtIndexed(s, ms(5)); got.RTT != ms(7) {
		t.Errorf("sampleAt before first sample = rtt %v, want wrap to %v", got.RTT, ms(7))
	}
	checkOneWay(t, s, ms(5), DelaySample{RTT: ms(7)})
}

func TestEncodeParseRoundTrip(t *testing.T) {
	s := testSeries()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDelaySeries(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Span != s.Span || len(got.Samples) != len(s.Samples) {
		t.Fatalf("round trip: got span %v / %d samples, want %v / %d",
			got.Span, len(got.Samples), s.Span, len(s.Samples))
	}
	for i := range s.Samples {
		if got.Samples[i] != s.Samples[i] {
			t.Errorf("sample %d: got %+v want %+v", i, got.Samples[i], s.Samples[i])
		}
	}
}

func TestParseDelaySeriesErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"bad schema", `{"schema":"asyncfd-trace/v9","span_us":1,"samples":[{"at_us":0,"rtt_us":1}]}`, "unknown schema version"},
		{"unknown field", `{"schema":"asyncfd-trace/v1","span_us":1,"bogus":1,"samples":[]}`, "bogus"},
		{"empty samples", `{"schema":"asyncfd-trace/v1","span_us":1,"samples":[]}`, "samples: must not be empty"},
		{"zero span", `{"schema":"asyncfd-trace/v1","span_us":0,"samples":[{"at_us":0,"rtt_us":1}]}`, "span_us"},
		{"at out of range", `{"schema":"asyncfd-trace/v1","span_us":10,"samples":[{"at_us":10,"rtt_us":1}]}`, "samples[0].at_us"},
		{"not ascending", `{"schema":"asyncfd-trace/v1","span_us":10,"samples":[{"at_us":5,"rtt_us":1},{"at_us":5,"rtt_us":2}]}`, "samples[1].at_us"},
		{"negative rtt", `{"schema":"asyncfd-trace/v1","span_us":10,"samples":[{"at_us":0,"rtt_us":-1}]}`, "samples[0].rtt_us"},
		{"trailing data", `{"schema":"asyncfd-trace/v1","span_us":10,"samples":[{"at_us":0,"rtt_us":1}]}{}`, "trailing"},
		// json.Decoder.More is false before a closing bracket, so a trailing
		// check built on it waves these through.
		{"trailing bracket", `{"schema":"asyncfd-trace/v1","span_us":1000,"samples":[{"at_us":0,"rtt_us":5}]} ]] junk`, "trailing"},
		{"trailing brace", `{"schema":"asyncfd-trace/v1","span_us":1000,"samples":[{"at_us":0,"rtt_us":5}]}}`, "trailing"},
		{"not json", `hello`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDelaySeries([]byte(tc.json))
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestSyntheticDeterministicAndValid(t *testing.T) {
	cfg := SyntheticConfig{
		Seed:     42,
		Count:    500,
		Tick:     10 * time.Millisecond,
		Base:     ms(1),
		Scale:    ms(1),
		Alpha:    1.5,
		Cap:      ms(200),
		LossRate: 0.05,
	}
	a, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("synthetic series invalid: %v", err)
	}
	b, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) || a.Span != b.Span {
		t.Fatal("same config produced different shapes")
	}
	losses := 0
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs across generations: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
		smp := a.Samples[i]
		if smp.RTT < cfg.Base || smp.RTT > cfg.Cap {
			t.Fatalf("sample %d rtt %v outside [base, cap]", i, smp.RTT)
		}
		if smp.Loss {
			losses++
		}
	}
	if losses == 0 {
		t.Error("expected some losses at 5% rate over 500 samples")
	}
	// A different seed must produce a different trace.
	cfg.Seed = 43
	c, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestSyntheticConfigErrors(t *testing.T) {
	base := SyntheticConfig{Seed: 1, Count: 10, Tick: ms(1), Alpha: 1.5}
	cases := []struct {
		name   string
		mutate func(*SyntheticConfig)
		want   string
	}{
		{"zero count", func(c *SyntheticConfig) { c.Count = 0 }, "synthetic.count"},
		{"huge count", func(c *SyntheticConfig) { c.Count = 1 << 21 }, "synthetic.count"},
		{"zero tick", func(c *SyntheticConfig) { c.Tick = 0 }, "synthetic.tick_us"},
		{"negative base", func(c *SyntheticConfig) { c.Base = -1 }, "synthetic.base_us"},
		{"negative scale", func(c *SyntheticConfig) { c.Scale = -1 }, "synthetic.scale_us"},
		{"zero alpha", func(c *SyntheticConfig) { c.Alpha = 0 }, "synthetic.alpha"},
		{"negative cap", func(c *SyntheticConfig) { c.Cap = -1 }, "synthetic.cap_us"},
		{"loss rate one", func(c *SyntheticConfig) { c.LossRate = 1 }, "synthetic.loss"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := Synthetic(cfg)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// sampleAtBySearch is the lookup as it was before the bucket index: a binary
// search of the whole series. It is the oracle the index is held to.
func sampleAtBySearch(s *DelaySeries, t time.Duration) DelaySample {
	off := t % s.Span
	if off < 0 {
		off += s.Span
	}
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].At > off })
	if i == 0 {
		return s.Samples[len(s.Samples)-1]
	}
	return s.Samples[i-1]
}

// randomSeries draws n strictly ascending sample offsets in [lo, hi) ⊆
// [0, span); each sample's RTT is its position, so two lookups agree only if
// they found the same sample, and about one sample in five is a loss.
func randomSeries(r *rand.Rand, span time.Duration, n int, lo, hi time.Duration) *DelaySeries {
	at := make(map[time.Duration]bool, n)
	for len(at) < n {
		at[lo+time.Duration(r.Int63n(int64(hi-lo)))] = true
	}
	s := &DelaySeries{Span: span}
	for a := range at {
		s.Samples = append(s.Samples, DelaySample{At: a})
	}
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].At < s.Samples[j].At })
	for i := range s.Samples {
		s.Samples[i].RTT = time.Duration(i)
		s.Samples[i].Loss = r.Intn(5) == 0
	}
	return s
}

// TestSampleAtIndexVsSearch holds the bucket index, and OneWay's packed
// read, to the binary-search oracle on the shapes that stress it: uniform
// ticks, a span that is no multiple of the sample count, non-uniform
// offsets, a clustered capture, one sample, every sample inside one bucket
// (at the front, at the back), as many samples as the span has nanoseconds,
// loss samples and RTTs at MaxDuration — probed at every sample's At
// exactly, one tick either side, before the first sample (wrap), at
// negative offsets and at and beyond Span. A uniformly ticked series must
// not search at all: none of its buckets is split.
func TestSampleAtIndexVsSearch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	uniform, err := Synthetic(SyntheticConfig{Seed: 3, Count: 4096, Tick: 5 * time.Millisecond, Scale: time.Millisecond, Alpha: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]*DelaySeries{
		"uniform4096":       uniform,
		"uniform-odd-tick":  mustSynthetic(t, SyntheticConfig{Seed: 4, Count: 37, Tick: 7 * time.Microsecond, Scale: time.Millisecond, Alpha: 2}),
		"span-not-multiple": {Span: 1003, Samples: []DelaySample{{At: 0}, {At: 100, RTT: 1}, {At: 200, RTT: 2}, {At: 1002, RTT: 3}}},
		"one-sample":        {Span: ms(10), Samples: []DelaySample{{At: ms(4), RTT: 9}}},
		"one-sample-at-0":   {Span: 1, Samples: []DelaySample{{At: 0, RTT: 9}}},
		"dense-as-span":     randomSeries(r, 64, 64, 0, 64),
		"all-in-first":      randomSeries(r, ms(1000), 200, 0, ms(1)),
		"all-in-last":       randomSeries(r, ms(1000), 200, ms(999), ms(1000)),
		"late-first-sample": randomSeries(r, ms(1000), 50, ms(400), ms(1000)),
		"clustered":         clusteredSeries(512),
		"uniform-lossy":     mustSynthetic(t, SyntheticConfig{Seed: 5, Count: 1000, Tick: time.Millisecond, Scale: time.Millisecond, Alpha: 1.2, Cap: ms(80), LossRate: 0.3}),
		"uniform-max-rtt":   mustSynthetic(t, SyntheticConfig{Seed: 6, Count: 64, Tick: time.Second, Base: MaxDuration, Alpha: 1, LossRate: 0.5}),
		"max-rtt": {Span: ms(10), Samples: []DelaySample{
			{At: 0, RTT: MaxDuration, Loss: true}, {At: ms(2), RTT: MaxDuration}, {At: ms(4), RTT: MaxDuration - 1, Loss: true}, {At: ms(7), RTT: 3},
		}},
	}
	for i := 0; i < 40; i++ {
		span := time.Duration(1 + r.Int63n(int64(ms(50))))
		n := 1 + r.Intn(300)
		if int64(n) > int64(span) {
			n = int(span)
		}
		lo := time.Duration(r.Int63n(int64(span)))
		hi := lo + 1 + time.Duration(r.Int63n(int64(span-lo)))
		if int64(hi-lo) < int64(n) {
			lo, hi = 0, span
		}
		series[fmt.Sprintf("random-%d", i)] = randomSeries(r, span, n, lo, hi)
	}
	for name, s := range series {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		probes := []time.Duration{0, 1, -1, s.Span - 1, s.Span, s.Span + 1, -s.Span, -s.Span - 1, 3*s.Span + s.Span/2, -7*s.Span + 1, MaxDuration, -MaxDuration}
		for _, smp := range s.Samples {
			probes = append(probes, smp.At-1, smp.At, smp.At+1, smp.At+s.Span, smp.At-s.Span)
		}
		for i := 0; i < 500; i++ {
			probes = append(probes, time.Duration(r.Int63n(int64(4*s.Span)))-2*s.Span)
		}
		for _, at := range probes {
			want := sampleAtBySearch(s, at)
			if got := sampleAtIndexed(s, at); got != want {
				t.Fatalf("%s (span %v, %d samples): sampleAt(%v) = %+v, search finds %+v", name, s.Span, len(s.Samples), at, got, want)
			}
			checkOneWay(t, s, at, want)
		}
		if strings.HasPrefix(name, "uniform") && slices.Contains(s.oneWay, split) {
			t.Errorf("%s: a uniformly ticked series has a split bucket", name)
		}
	}
}

func mustSynthetic(t testing.TB, cfg SyntheticConfig) *DelaySeries {
	t.Helper()
	s, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSampleAtConcurrentFirstUse: a series is shared by every -parallel
// worker and its index is built by whichever asks first. Run under -race.
func TestSampleAtConcurrentFirstUse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := randomSeries(r, ms(1000), 500, 0, ms(1000))
	probes := make([]time.Duration, 64)
	for i := range probes {
		probes[i] = time.Duration(r.Int63n(int64(3 * s.Span)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, at := range probes {
				want := sampleAtBySearch(s, at)
				if d, ok := s.OneWay(at); d != want.RTT/2 || ok != !want.Loss {
					t.Errorf("OneWay(%v) = %v,%v, search finds %+v", at, d, ok, want)
				}
			}
		}()
	}
	wg.Wait()
}

// clusteredSeries packs all but 16 of n samples into the first hundredth of
// the span: what a burst capture looks like, and the index's worst case.
func clusteredSeries(n int) *DelaySeries {
	r := rand.New(rand.NewSource(5))
	span := time.Duration(n) * 5 * time.Millisecond
	s := randomSeries(r, span, n-16, 0, span/100)
	for i := 0; i < 16; i++ {
		s.Samples = append(s.Samples, DelaySample{At: span/100 + time.Duration(i)*(span/17), RTT: time.Duration(n - 16 + i)})
	}
	return s
}

// BenchmarkSampleAt is the replay row of the layer ledger
// (docs/BENCHMARKS.md): one lookup (OneWay) at a pseudo-random offset, on
// the churn workload's series shape (4096 uniform ticks) and on a clustered
// one.
func BenchmarkSampleAt(b *testing.B) {
	for _, bc := range []struct {
		name   string
		series *DelaySeries
	}{
		{"uniform4096", mustSynthetic(b, SyntheticConfig{Seed: 3, Count: 4096, Tick: 5 * time.Millisecond, Scale: time.Millisecond, Alpha: 1.5})},
		{"clustered4096", clusteredSeries(4096)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if err := bc.series.Validate(); err != nil {
				b.Fatal(err)
			}
			var sink time.Duration
			at := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = (at + 7_919_003*time.Microsecond) & (1<<42 - 1) // a prime stride: offsets cover the span
				d, _ := bc.series.OneWay(at)
				sink += d
			}
			_ = sink
		})
	}
}
