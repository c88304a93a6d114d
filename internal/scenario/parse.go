package scenario

// parse.go turns asyncfd-scenario/v1 JSON into a validated Scenario. The
// contract FuzzScenarioConfig enforces: every input either compiles into a
// scenario that the execution engine can run without panicking, or fails
// with an error naming the offending field path ("scenario: <path>: ...").
// Decoding is strict everywhere — unknown fields, wrong schema versions and
// trailing bytes are errors — and every semantic invariant the downstream
// machinery assumes (disjoint partition islands, alternating crash/recover
// pairs, in-horizon events, resolvable column references, ...) is checked
// here rather than left to panic later.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/trace"
)

// Compile-time bounds. They exist to keep hostile inputs from ballooning
// memory during compilation (the fuzz harness parses arbitrary JSON); real
// configs sit far below all of them.
const (
	maxDurationUS  = int64(24 * time.Hour / time.Microsecond)
	maxClusterN    = 1024
	maxTopologyN   = 8192
	maxRepeat      = 1024
	maxVariants    = 32
	maxMetrics     = 64
	maxColumns     = 64
	maxEvents      = 16384
	maxFlapCount   = 1024
	maxEpisode     = 64
	maxNameLen     = 64
	maxStringLen   = 1024
	maxNsEntries   = 16
	maxIslandLists = 64
)

// errf builds a path-prefixed scenario error.
func errf(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format, args...)
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		//fdlint:allow errprefix callers wrap decode errors with errf, which adds the prefix
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// usDur converts a microsecond JSON field to a duration, enforcing the
// non-negative bounded range every duration field shares.
func usDur(path string, v int64) (time.Duration, error) {
	if v < 0 {
		return 0, errf("%s: must be >= 0, got %d", path, v)
	}
	if v > maxDurationUS {
		return 0, errf("%s: %d exceeds the 24h bound", path, v)
	}
	return time.Duration(v) * time.Microsecond, nil
}

// ---------------------------------------------------------------------------
// Raw (wire) forms.

type rawScenario struct {
	Schema      string          `json:"schema"`
	Name        string          `json:"name"`
	Title       string          `json:"title"`
	Note        string          `json:"note,omitempty"`
	Description string          `json:"description,omitempty"`
	Repeat      int             `json:"repeat,omitempty"`
	Cluster     json.RawMessage `json:"cluster"`
	Faults      json.RawMessage `json:"faults,omitempty"`
	Measure     json.RawMessage `json:"measure"`
	Quick       *rawQuick       `json:"quick,omitempty"`
}

// rawQuick is the -quick overlay: each present field REPLACES the
// corresponding full-size section wholesale (no merging — a quick scenario
// is spelled out completely, like the built-in experiments' quick branches).
type rawQuick struct {
	Title   *string         `json:"title,omitempty"`
	Note    *string         `json:"note,omitempty"`
	Repeat  *int            `json:"repeat,omitempty"`
	Cluster json.RawMessage `json:"cluster,omitempty"`
	Faults  json.RawMessage `json:"faults,omitempty"`
	Measure json.RawMessage `json:"measure,omitempty"`
}

type rawCluster struct {
	N             int             `json:"n,omitempty"`
	F             int             `json:"f,omitempty"`
	Detectors     []string        `json:"detectors,omitempty"`
	Delay         json.RawMessage `json:"delay"`
	WindowUS      int64           `json:"window_us,omitempty"`
	IntervalUS    int64           `json:"interval_us,omitempty"`
	RebroadcastUS int64           `json:"rebroadcast_us,omitempty"`
	DisableTags   bool            `json:"disable_tags,omitempty"`
	HBIntervalUS  int64           `json:"hb_interval_us,omitempty"`
	HBTimeoutUS   int64           `json:"hb_timeout_us,omitempty"`
	PhiThreshold  float64         `json:"phi_threshold,omitempty"`
	ChenAlphaUS   int64           `json:"chen_alpha_us,omitempty"`
	CountBytes    bool            `json:"count_bytes,omitempty"`
	StartJitterUS int64           `json:"start_jitter_us,omitempty"`
}

type rawFaults struct {
	VariantHeader string            `json:"variant_header,omitempty"`
	Variants      []rawVariant      `json:"variants,omitempty"`
	Events        []json.RawMessage `json:"events,omitempty"`
	Generators    []json.RawMessage `json:"generators,omitempty"`
}

type rawVariant struct {
	Name       string            `json:"name"`
	Events     []json.RawMessage `json:"events,omitempty"`
	Generators []json.RawMessage `json:"generators,omitempty"`
}

type rawMeasure struct {
	Program    string            `json:"program"`
	WarmUS     int64             `json:"warm_us,omitempty"`
	HorizonUS  int64             `json:"horizon_us"`
	Metrics    []json.RawMessage `json:"metrics,omitempty"`
	Columns    []rawColumn       `json:"columns,omitempty"`
	Topologies []string          `json:"topologies,omitempty"`
	Ns         []int             `json:"ns,omitempty"`
	CrashAtUS  int64             `json:"crash_at_us,omitempty"`
	IntervalUS int64             `json:"interval_us,omitempty"`
	TimeoutUS  int64             `json:"timeout_us,omitempty"`
	ProposeUS  int64             `json:"propose_us,omitempty"`
}

type rawColumn struct {
	Header string `json:"header"`
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	Format string `json:"format,omitempty"`
}

// ---------------------------------------------------------------------------
// Entry point.

// Parse compiles an asyncfd-scenario/v1 document. quick selects the
// document's "quick" overlay (section-wise replacement), mirroring the
// built-in experiments' Options.Quick behavior.
func Parse(data []byte, quick bool) (*Scenario, error) {
	// Probe the schema field first (loose decode) so a wrong or missing
	// schema is reported as such, not as an unknown-field error against v1.
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, errf("%v", err)
	}
	if probe.Schema != Schema {
		return nil, errf("schema: unknown schema version %q (want %q)", probe.Schema, Schema)
	}
	var raw rawScenario
	if err := strictUnmarshal(data, &raw); err != nil {
		return nil, errf("%v", err)
	}
	if quick && raw.Quick != nil {
		q := raw.Quick
		if q.Title != nil {
			raw.Title = *q.Title
		}
		if q.Note != nil {
			raw.Note = *q.Note
		}
		if q.Repeat != nil {
			raw.Repeat = *q.Repeat
		}
		if q.Cluster != nil {
			raw.Cluster = q.Cluster
		}
		if q.Faults != nil {
			raw.Faults = q.Faults
		}
		if q.Measure != nil {
			raw.Measure = q.Measure
		}
	}
	return compile(&raw)
}

func compile(raw *rawScenario) (*Scenario, error) {
	sc := &Scenario{
		Name:        raw.Name,
		Title:       raw.Title,
		Note:        raw.Note,
		Description: raw.Description,
		Repeat:      raw.Repeat,
	}
	if sc.Name == "" {
		return nil, errf("name: required")
	}
	if len(sc.Name) > maxNameLen {
		return nil, errf("name: longer than %d bytes", maxNameLen)
	}
	for _, r := range sc.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return nil, errf("name: %q contains %q; use letters, digits, - and _", sc.Name, r)
		}
	}
	if sc.Title == "" {
		return nil, errf("title: required")
	}
	for _, s := range []struct{ path, v string }{
		{"title", sc.Title}, {"note", sc.Note}, {"description", sc.Description},
	} {
		if len(s.v) > maxStringLen {
			return nil, errf("%s: longer than %d bytes", s.path, maxStringLen)
		}
	}
	if sc.Repeat < 0 || sc.Repeat > maxRepeat {
		return nil, errf("repeat: must be in [0, %d], got %d", maxRepeat, sc.Repeat)
	}
	if len(raw.Measure) == 0 {
		return nil, errf("measure: required")
	}
	var m rawMeasure
	if err := strictUnmarshal(raw.Measure, &m); err != nil {
		return nil, errf("measure: %v", err)
	}
	if len(raw.Cluster) == 0 {
		return nil, errf("cluster: required")
	}
	var cl rawCluster
	if err := strictUnmarshal(raw.Cluster, &cl); err != nil {
		return nil, errf("cluster: %v", err)
	}
	var err error
	switch m.Program {
	case "cluster":
		err = compileClusterProgram(sc, &cl, raw.Faults, &m)
	case "topology":
		err = compileTopologyProgram(sc, &cl, raw.Faults, &m)
	case "consensus":
		err = compileConsensusProgram(sc, &cl, raw.Faults, &m)
	case "":
		err = errf("measure.program: required (cluster, topology or consensus)")
	default:
		err = errf("measure.program: unknown program %q (want cluster, topology or consensus)", m.Program)
	}
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// ---------------------------------------------------------------------------
// Cluster section.

// compileClusterSpec compiles the cluster section for the programs that run
// the full detector cluster (cluster, consensus).
func compileClusterSpec(cl *rawCluster) (ClusterSpec, error) {
	var out ClusterSpec
	if cl.N < 2 || cl.N > maxClusterN {
		return out, errf("cluster.n: must be in [2, %d], got %d", maxClusterN, cl.N)
	}
	if cl.F < 0 || cl.F >= cl.N {
		return out, errf("cluster.f: must be in [0, n), got %d", cl.F)
	}
	out.N, out.F = cl.N, cl.F
	if len(cl.Detectors) == 0 {
		return out, errf("cluster.detectors: required")
	}
	seen := map[string]bool{}
	for i, d := range cl.Detectors {
		if !validDetector(d) {
			return out, errf("cluster.detectors[%d]: unknown detector %q (want one of %v)", i, d, DetectorNames)
		}
		if seen[d] {
			return out, errf("cluster.detectors[%d]: duplicate detector %q", i, d)
		}
		seen[d] = true
	}
	out.Detectors = cl.Detectors
	var err error
	if out.Delay, err = compileDelay("cluster.delay", cl.Delay); err != nil {
		return out, err
	}
	for _, d := range []struct {
		path string
		us   int64
		dst  *time.Duration
	}{
		{"cluster.window_us", cl.WindowUS, &out.Window},
		{"cluster.interval_us", cl.IntervalUS, &out.Interval},
		{"cluster.rebroadcast_us", cl.RebroadcastUS, &out.Rebroadcast},
		{"cluster.hb_interval_us", cl.HBIntervalUS, &out.HBInterval},
		{"cluster.hb_timeout_us", cl.HBTimeoutUS, &out.HBTimeout},
		{"cluster.chen_alpha_us", cl.ChenAlphaUS, &out.ChenAlpha},
		{"cluster.start_jitter_us", cl.StartJitterUS, &out.StartJitter},
	} {
		if *d.dst, err = usDur(d.path, d.us); err != nil {
			return out, err
		}
	}
	if cl.PhiThreshold < 0 || cl.PhiThreshold > 100 {
		return out, errf("cluster.phi_threshold: must be in [0, 100], got %v", cl.PhiThreshold)
	}
	out.PhiThreshold = cl.PhiThreshold
	out.DisableTags = cl.DisableTags
	out.CountBytes = cl.CountBytes
	return out, nil
}

func validDetector(name string) bool {
	for _, d := range DetectorNames {
		if d == name {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Delay models.

func compileDelay(path string, raw json.RawMessage) (netsim.DelayModel, error) {
	if len(raw) == 0 {
		return nil, errf("%s: required", path)
	}
	var probe struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, errf("%s: %v", path, err)
	}
	switch probe.Model {
	case "constant":
		var r struct {
			Model string `json:"model"`
			DUS   int64  `json:"d_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		d, err := usDur(path+".d_us", r.DUS)
		if err != nil {
			return nil, err
		}
		return netsim.Constant{D: d}, nil
	case "uniform":
		var r struct {
			Model string `json:"model"`
			MinUS int64  `json:"min_us"`
			MaxUS int64  `json:"max_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		min, err := usDur(path+".min_us", r.MinUS)
		if err != nil {
			return nil, err
		}
		max, err := usDur(path+".max_us", r.MaxUS)
		if err != nil {
			return nil, err
		}
		if max < min {
			return nil, errf("%s.max_us: %d below min_us", path, r.MaxUS)
		}
		return netsim.Uniform{Min: min, Max: max}, nil
	case "exponential":
		var r struct {
			Model  string `json:"model"`
			MinUS  int64  `json:"min_us"`
			MeanUS int64  `json:"mean_us"`
			CapUS  int64  `json:"cap_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		min, err := usDur(path+".min_us", r.MinUS)
		if err != nil {
			return nil, err
		}
		mean, err := usDur(path+".mean_us", r.MeanUS)
		if err != nil {
			return nil, err
		}
		cap, err := usDur(path+".cap_us", r.CapUS)
		if err != nil {
			return nil, err
		}
		if mean <= 0 {
			return nil, errf("%s.mean_us: must be positive", path)
		}
		return netsim.Exponential{Min: min, Mean: mean, Cap: cap}, nil
	case "pareto":
		var r struct {
			Model   string  `json:"model"`
			ScaleUS int64   `json:"scale_us"`
			Alpha   float64 `json:"alpha"`
			CapUS   int64   `json:"cap_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		scale, err := usDur(path+".scale_us", r.ScaleUS)
		if err != nil {
			return nil, err
		}
		cap, err := usDur(path+".cap_us", r.CapUS)
		if err != nil {
			return nil, err
		}
		if scale <= 0 {
			return nil, errf("%s.scale_us: must be positive", path)
		}
		if r.Alpha <= 0 {
			return nil, errf("%s.alpha: must be positive, got %v", path, r.Alpha)
		}
		return netsim.Pareto{Scale: scale, Alpha: r.Alpha, Cap: cap}, nil
	case "trace":
		var r struct {
			Model     string          `json:"model"`
			Series    json.RawMessage `json:"series,omitempty"`
			Synthetic json.RawMessage `json:"synthetic,omitempty"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		if (r.Series == nil) == (r.Synthetic == nil) {
			return nil, errf("%s: exactly one of series and synthetic is required", path)
		}
		var series *trace.DelaySeries
		if r.Series != nil {
			s, err := trace.ParseDelaySeries(r.Series)
			if err != nil {
				return nil, errf("%s.series: %v", path, err)
			}
			series = s
		} else {
			var s struct {
				Seed    int64   `json:"seed"`
				Count   int     `json:"count"`
				TickUS  int64   `json:"tick_us"`
				BaseUS  int64   `json:"base_us"`
				ScaleUS int64   `json:"scale_us"`
				Alpha   float64 `json:"alpha"`
				CapUS   int64   `json:"cap_us"`
				Loss    float64 `json:"loss,omitempty"`
			}
			if err := strictUnmarshal(r.Synthetic, &s); err != nil {
				return nil, errf("%s.synthetic: %v", path, err)
			}
			cfg := trace.SyntheticConfig{Seed: s.Seed, Count: s.Count, Alpha: s.Alpha, LossRate: s.Loss}
			var err error
			for _, d := range []struct {
				field string
				us    int64
				dst   *time.Duration
			}{
				{"tick_us", s.TickUS, &cfg.Tick},
				{"base_us", s.BaseUS, &cfg.Base},
				{"scale_us", s.ScaleUS, &cfg.Scale},
				{"cap_us", s.CapUS, &cfg.Cap},
			} {
				if *d.dst, err = usDur(path+".synthetic."+d.field, d.us); err != nil {
					return nil, err
				}
			}
			gen, err := trace.Synthetic(cfg)
			if err != nil {
				return nil, errf("%s.synthetic: %v", path, err)
			}
			series = gen
		}
		return netsim.Replay{Series: series}, nil
	case "":
		return nil, errf("%s.model: required (constant, uniform, exponential, pareto or trace)", path)
	default:
		return nil, errf("%s.model: unknown delay model %q", path, probe.Model)
	}
}

// ---------------------------------------------------------------------------
// Fault schedules.

// compileVariants compiles the faults section into named variants. n bounds
// the valid process ids; horizon bounds event times. allowFaults=false (the
// topology program) rejects any events at all.
func compileVariants(rawMsg json.RawMessage, n int, horizon time.Duration, allowFaults bool) (string, []Variant, error) {
	f := rawFaults{}
	if len(rawMsg) != 0 {
		if err := strictUnmarshal(rawMsg, &f); err != nil {
			return "", nil, errf("faults: %v", err)
		}
	}
	if len(f.Variants) > 0 && (len(f.Events) > 0 || len(f.Generators) > 0) {
		return "", nil, errf("faults: use either variants or bare events/generators, not both")
	}
	if !allowFaults {
		if len(f.Variants) > 0 || len(f.Events) > 0 || len(f.Generators) > 0 || f.VariantHeader != "" {
			return "", nil, errf("faults: the topology program does not take a fault schedule (measure.crash_at_us scripts its crash)")
		}
		return "", []Variant{{}}, nil
	}
	if len(f.Variants) == 0 {
		// Bare (or absent) form: one unnamed variant.
		if f.VariantHeader != "" {
			return "", nil, errf("faults.variant_header: requires a variants list")
		}
		sched, err := compileSchedule("faults", f.Events, f.Generators, n, horizon)
		if err != nil {
			return "", nil, err
		}
		return "", []Variant{{Faults: sched}}, nil
	}
	if len(f.Variants) > maxVariants {
		return "", nil, errf("faults.variants: more than %d variants", maxVariants)
	}
	if len(f.Variants) > 1 && f.VariantHeader == "" {
		return "", nil, errf("faults.variant_header: required when multiple variants are listed")
	}
	names := map[string]bool{}
	variants := make([]Variant, len(f.Variants))
	for i, rv := range f.Variants {
		path := fmt.Sprintf("faults.variants[%d]", i)
		if rv.Name == "" {
			return "", nil, errf("%s.name: required", path)
		}
		if len(rv.Name) > maxNameLen {
			return "", nil, errf("%s.name: longer than %d bytes", path, maxNameLen)
		}
		if names[rv.Name] {
			return "", nil, errf("%s.name: duplicate variant %q", path, rv.Name)
		}
		names[rv.Name] = true
		sched, err := compileSchedule(path, rv.Events, rv.Generators, n, horizon)
		if err != nil {
			return "", nil, err
		}
		variants[i] = Variant{Name: rv.Name, Faults: sched}
	}
	return f.VariantHeader, variants, nil
}

// compileSchedule compiles one variant's events and generators into a
// validated faults.Schedule (generators expanded, in listed order after the
// explicit events).
func compileSchedule(path string, events, generators []json.RawMessage, n int, horizon time.Duration) (faults.Schedule, error) {
	var sched faults.Schedule
	for i, raw := range events {
		ev, err := compileEvent(fmt.Sprintf("%s.events[%d]", path, i), raw, n)
		if err != nil {
			return nil, err
		}
		sched = append(sched, ev)
	}
	for i, raw := range generators {
		gpath := fmt.Sprintf("%s.generators[%d]", path, i)
		expanded, err := compileGenerator(gpath, raw, n)
		if err != nil {
			return nil, err
		}
		sched = append(sched, expanded...)
		if len(sched) > maxEvents {
			return nil, errf("%s: schedule exceeds %d events", gpath, maxEvents)
		}
	}
	if len(sched) > maxEvents {
		return nil, errf("%s.events: schedule exceeds %d events", path, maxEvents)
	}
	if err := validateSchedule(path, sched, horizon); err != nil {
		return nil, err
	}
	return sched, nil
}

func compileEvent(path string, raw json.RawMessage, n int) (faults.Event, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return faults.Event{}, errf("%s: %v", path, err)
	}
	switch probe.Kind {
	case "crash":
		var r struct {
			Kind string `json:"kind"`
			AtUS int64  `json:"at_us"`
			ID   int    `json:"id"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return faults.Event{}, errf("%s: %v", path, err)
		}
		at, err := usDur(path+".at_us", r.AtUS)
		if err != nil {
			return faults.Event{}, err
		}
		if err := validateID(path+".id", r.ID, n); err != nil {
			return faults.Event{}, err
		}
		return faults.Event{At: at, Kind: faults.KindCrash, ID: ident.ID(r.ID)}, nil
	case "recover":
		var r struct {
			Kind  string `json:"kind"`
			AtUS  int64  `json:"at_us"`
			ID    int    `json:"id"`
			Fresh bool   `json:"fresh,omitempty"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return faults.Event{}, errf("%s: %v", path, err)
		}
		at, err := usDur(path+".at_us", r.AtUS)
		if err != nil {
			return faults.Event{}, err
		}
		if err := validateID(path+".id", r.ID, n); err != nil {
			return faults.Event{}, err
		}
		return faults.Event{At: at, Kind: faults.KindRecover, ID: ident.ID(r.ID), FreshState: r.Fresh}, nil
	case "partition":
		var r struct {
			Kind    string  `json:"kind"`
			AtUS    int64   `json:"at_us"`
			Islands [][]int `json:"islands"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return faults.Event{}, errf("%s: %v", path, err)
		}
		at, err := usDur(path+".at_us", r.AtUS)
		if err != nil {
			return faults.Event{}, err
		}
		islands, err := compileIslands(path+".islands", r.Islands, n)
		if err != nil {
			return faults.Event{}, err
		}
		return faults.Event{At: at, Kind: faults.KindPartition, Islands: islands}, nil
	case "heal":
		var r struct {
			Kind string `json:"kind"`
			AtUS int64  `json:"at_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return faults.Event{}, errf("%s: %v", path, err)
		}
		at, err := usDur(path+".at_us", r.AtUS)
		if err != nil {
			return faults.Event{}, err
		}
		return faults.Event{At: at, Kind: faults.KindHeal}, nil
	case "":
		return faults.Event{}, errf("%s.kind: required (crash, recover, partition or heal)", path)
	default:
		return faults.Event{}, errf("%s.kind: unknown event kind %q", path, probe.Kind)
	}
}

func validateID(path string, id, n int) error {
	if id < 0 || id >= n {
		return errf("%s: process id %d outside [0, n=%d)", path, id, n)
	}
	return nil
}

// compileIslands validates one partition event's islands — non-empty, valid
// ids, no process in two islands (the invariant netsim.Partition panics on).
func compileIslands(path string, islands [][]int, n int) ([][]ident.ID, error) {
	if len(islands) == 0 {
		return nil, errf("%s: at least one island is required", path)
	}
	if len(islands) > maxIslandLists {
		return nil, errf("%s: more than %d islands", path, maxIslandLists)
	}
	seen := map[int]bool{}
	out := make([][]ident.ID, len(islands))
	for i, island := range islands {
		if len(island) == 0 {
			return nil, errf("%s[%d]: island must not be empty", path, i)
		}
		ids := make([]ident.ID, len(island))
		for j, id := range island {
			if err := validateID(fmt.Sprintf("%s[%d][%d]", path, i, j), id, n); err != nil {
				return nil, err
			}
			if seen[id] {
				return nil, errf("%s[%d][%d]: process %d listed in two islands", path, i, j, id)
			}
			seen[id] = true
			ids[j] = ident.ID(id)
		}
		out[i] = ids
	}
	return out, nil
}

func compileGenerator(path string, raw json.RawMessage, n int) (faults.Schedule, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, errf("%s: %v", path, err)
	}
	switch probe.Kind {
	case "flap":
		// A flapping-link train: partition into islands at at + k·period,
		// heal down later, for count cycles.
		var r struct {
			Kind     string  `json:"kind"`
			Islands  [][]int `json:"islands"`
			AtUS     int64   `json:"at_us"`
			DownUS   int64   `json:"down_us"`
			PeriodUS int64   `json:"period_us"`
			Count    int     `json:"count"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		at, err := usDur(path+".at_us", r.AtUS)
		if err != nil {
			return nil, err
		}
		down, err := usDur(path+".down_us", r.DownUS)
		if err != nil {
			return nil, err
		}
		period, err := usDur(path+".period_us", r.PeriodUS)
		if err != nil {
			return nil, err
		}
		if down <= 0 {
			return nil, errf("%s.down_us: must be positive", path)
		}
		if period <= down {
			return nil, errf("%s.period_us: must exceed down_us (%d)", path, r.DownUS)
		}
		if r.Count < 1 || r.Count > maxFlapCount {
			return nil, errf("%s.count: must be in [1, %d], got %d", path, maxFlapCount, r.Count)
		}
		islands, err := compileIslands(path+".islands", r.Islands, n)
		if err != nil {
			return nil, err
		}
		var out faults.Schedule
		for k := 0; k < r.Count; k++ {
			start := at + time.Duration(k)*period
			out = out.PartitionAt(start, islands...).HealAt(start + down)
		}
		return out, nil
	case "crash-burst":
		// A correlated crash burst: the listed processes crash in order,
		// spacing apart.
		var r struct {
			Kind      string `json:"kind"`
			IDs       []int  `json:"ids"`
			AtUS      int64  `json:"at_us"`
			SpacingUS int64  `json:"spacing_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		at, err := usDur(path+".at_us", r.AtUS)
		if err != nil {
			return nil, err
		}
		spacing, err := usDur(path+".spacing_us", r.SpacingUS)
		if err != nil {
			return nil, err
		}
		if len(r.IDs) == 0 {
			return nil, errf("%s.ids: required", path)
		}
		seen := map[int]bool{}
		var out faults.Schedule
		for j, id := range r.IDs {
			if err := validateID(fmt.Sprintf("%s.ids[%d]", path, j), id, n); err != nil {
				return nil, err
			}
			if seen[id] {
				return nil, errf("%s.ids[%d]: duplicate process %d", path, j, id)
			}
			seen[id] = true
			out = out.CrashAt(ident.ID(id), at+time.Duration(j)*spacing)
		}
		return out, nil
	case "uniform-crashes":
		// The paper family's "faults uniformly inserted" plan, reproducible
		// from its own seed (faults.Uniform).
		var r struct {
			Kind       string `json:"kind"`
			Seed       int64  `json:"seed"`
			Count      int    `json:"count"`
			Candidates []int  `json:"candidates"`
			StartUS    int64  `json:"start_us"`
			EndUS      int64  `json:"end_us"`
		}
		if err := strictUnmarshal(raw, &r); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		start, err := usDur(path+".start_us", r.StartUS)
		if err != nil {
			return nil, err
		}
		end, err := usDur(path+".end_us", r.EndUS)
		if err != nil {
			return nil, err
		}
		if end <= start {
			return nil, errf("%s.end_us: must exceed start_us", path)
		}
		if len(r.Candidates) == 0 {
			return nil, errf("%s.candidates: required", path)
		}
		seen := map[int]bool{}
		cands := make([]ident.ID, len(r.Candidates))
		for j, id := range r.Candidates {
			if err := validateID(fmt.Sprintf("%s.candidates[%d]", path, j), id, n); err != nil {
				return nil, err
			}
			if seen[id] {
				return nil, errf("%s.candidates[%d]: duplicate process %d", path, j, id)
			}
			seen[id] = true
			cands[j] = ident.ID(id)
		}
		if r.Count < 1 || r.Count > len(cands) {
			return nil, errf("%s.count: must be in [1, len(candidates)=%d], got %d", path, len(cands), r.Count)
		}
		//fdlint:allow rngdiscipline deterministic generator expansion at parse time, outside any kernel
		return faults.Uniform(rand.New(rand.NewSource(r.Seed)), cands, r.Count, start, end), nil
	case "":
		return nil, errf("%s.kind: required (flap, crash-burst or uniform-crashes)", path)
	default:
		return nil, errf("%s.kind: unknown generator kind %q", path, probe.Kind)
	}
}

// validateSchedule enforces, over the time-sorted schedule, the invariants
// the downstream layers assume rather than tolerate: every event fires
// before the horizon, each process's crash/recover events strictly
// alternate starting with a crash (GroundTruth would silently no-op the
// violations), and every heal matches an active partition.
func validateSchedule(path string, sched faults.Schedule, horizon time.Duration) error {
	ordered := append(faults.Schedule(nil), sched...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	down := map[ident.ID]bool{}
	depth := 0
	for _, e := range ordered {
		if e.At >= horizon {
			return errf("%s: %s of %v at %v does not precede the horizon (%v)", path, e.Kind, e.ID, e.At, horizon)
		}
		switch e.Kind {
		case faults.KindCrash:
			if down[e.ID] {
				return errf("%s: %v crashes at %v while already down", path, e.ID, e.At)
			}
			down[e.ID] = true
		case faults.KindRecover:
			if !down[e.ID] {
				return errf("%s: %v recovers at %v without a preceding crash", path, e.ID, e.At)
			}
			down[e.ID] = false
		case faults.KindPartition:
			depth++
		case faults.KindHeal:
			if depth == 0 {
				return errf("%s: heal at %v without an active partition", path, e.At)
			}
			depth--
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Measurement programs.

func compileClusterProgram(sc *Scenario, cl *rawCluster, rawF json.RawMessage, m *rawMeasure) error {
	spec, err := compileClusterSpec(cl)
	if err != nil {
		return err
	}
	sc.Cluster = spec
	sc.Measure.Program = ProgramCluster
	if err := rejectFields("measure", "the cluster program", map[string]bool{
		"topologies":  len(m.Topologies) > 0,
		"ns":          len(m.Ns) > 0,
		"crash_at_us": m.CrashAtUS != 0,
		"interval_us": m.IntervalUS != 0,
		"timeout_us":  m.TimeoutUS != 0,
		"propose_us":  m.ProposeUS != 0,
	}); err != nil {
		return err
	}
	if sc.Measure.Warm, err = usDur("measure.warm_us", m.WarmUS); err != nil {
		return err
	}
	if sc.Measure.Horizon, err = usDur("measure.horizon_us", m.HorizonUS); err != nil {
		return err
	}
	if sc.Measure.Horizon <= sc.Measure.Warm {
		return errf("measure.horizon_us: must exceed warm_us")
	}
	sc.VariantHeader, sc.Variants, err = compileVariants(rawF, spec.N, sc.Measure.Horizon, true)
	if err != nil {
		return err
	}
	streams, err := compileMetrics(sc, m)
	if err != nil {
		return err
	}
	return compileColumns(sc, m, streams)
}

// rejectFields errors on the first listed field that is set but not used by
// the given program.
func rejectFields(prefix, program string, set map[string]bool) error {
	// Deterministic error selection: report the lexicographically first.
	var bad []string
	for name, isSet := range set {
		if isSet {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return errf("%s.%s: not used by %s", prefix, bad[0], program)
}

// streamType is the value type a metric's per-replicate stream carries;
// columns must aggregate compatible streams.
type streamType int

const (
	streamDetection streamType = iota + 1 // qos.DetectionStats
	streamDuration                        // time.Duration (reconvergence settle)
	streamScalar                          // float64 (storm count)
	streamBool                            // 0/1 indicator (reconvergence clean)
)

func compileMetrics(sc *Scenario, m *rawMeasure) (map[string]streamType, error) {
	if len(m.Metrics) == 0 {
		return nil, errf("measure.metrics: required for the cluster program")
	}
	if len(m.Metrics) > maxMetrics {
		return nil, errf("measure.metrics: more than %d metrics", maxMetrics)
	}
	streams := map[string]streamType{}
	n := sc.Cluster.N
	horizon := sc.Measure.Horizon
	claim := func(path, name string, st streamType) error {
		if name == "" {
			return errf("%s: required", path)
		}
		if len(name) > maxNameLen {
			return errf("%s: longer than %d bytes", path, maxNameLen)
		}
		if _, dup := streams[name]; dup {
			return errf("%s: duplicate metric name %q", path, name)
		}
		streams[name] = st
		return nil
	}
	for i, raw := range m.Metrics {
		path := fmt.Sprintf("measure.metrics[%d]", i)
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, errf("%s: %v", path, err)
		}
		var met Metric
		switch probe.Kind {
		case "detection", "redetection", "trust-restoration":
			var r struct {
				Kind      string `json:"kind"`
				Name      string `json:"name"`
				Victim    int    `json:"victim"`
				Observers []int  `json:"observers,omitempty"`
				Episode   int    `json:"episode,omitempty"`
			}
			if err := strictUnmarshal(raw, &r); err != nil {
				return nil, errf("%s: %v", path, err)
			}
			if err := claim(path+".name", r.Name, streamDetection); err != nil {
				return nil, err
			}
			if err := validateID(path+".victim", r.Victim, n); err != nil {
				return nil, err
			}
			if r.Episode < 0 || r.Episode > maxEpisode {
				return nil, errf("%s.episode: must be in [0, %d], got %d", path, maxEpisode, r.Episode)
			}
			if probe.Kind == "detection" && r.Episode != 0 {
				return nil, errf("%s.episode: not used by detection (use redetection)", path)
			}
			obs := make([]ident.ID, 0, len(r.Observers))
			seen := map[int]bool{}
			for j, id := range r.Observers {
				if err := validateID(fmt.Sprintf("%s.observers[%d]", path, j), id, n); err != nil {
					return nil, err
				}
				if seen[id] {
					return nil, errf("%s.observers[%d]: duplicate process %d", path, j, id)
				}
				if id == r.Victim {
					return nil, errf("%s.observers[%d]: the victim cannot observe itself", path, j)
				}
				seen[id] = true
				obs = append(obs, ident.ID(id))
			}
			met = Metric{
				Name:      r.Name,
				Victim:    ident.ID(r.Victim),
				Observers: obs,
				Episode:   r.Episode,
			}
			switch probe.Kind {
			case "detection":
				met.Kind = MetricDetection
			case "redetection":
				met.Kind = MetricRedetection
			case "trust-restoration":
				met.Kind = MetricTrustRestoration
			}
		case "storm":
			var r struct {
				Kind   string `json:"kind"`
				Name   string `json:"name"`
				FromUS int64  `json:"from_us"`
				ToUS   int64  `json:"to_us"`
			}
			if err := strictUnmarshal(raw, &r); err != nil {
				return nil, errf("%s: %v", path, err)
			}
			if err := claim(path+".name", r.Name, streamScalar); err != nil {
				return nil, err
			}
			from, err := usDur(path+".from_us", r.FromUS)
			if err != nil {
				return nil, err
			}
			to, err := usDur(path+".to_us", r.ToUS)
			if err != nil {
				return nil, err
			}
			if to <= from {
				return nil, errf("%s.to_us: must exceed from_us", path)
			}
			if to > horizon {
				return nil, errf("%s.to_us: beyond the horizon (%v)", path, horizon)
			}
			met = Metric{Name: r.Name, Kind: MetricStorm, From: from, To: to}
		case "reconvergence":
			var r struct {
				Kind      string `json:"kind"`
				Name      string `json:"name"`
				AfterUS   int64  `json:"after_us"`
				CleanName string `json:"clean_name,omitempty"`
			}
			if err := strictUnmarshal(raw, &r); err != nil {
				return nil, errf("%s: %v", path, err)
			}
			if err := claim(path+".name", r.Name, streamDuration); err != nil {
				return nil, err
			}
			after, err := usDur(path+".after_us", r.AfterUS)
			if err != nil {
				return nil, err
			}
			if after >= horizon {
				return nil, errf("%s.after_us: must precede the horizon (%v)", path, horizon)
			}
			clean := r.CleanName
			if clean == "" {
				clean = "clean"
			}
			if err := claim(path+".clean_name", clean, streamBool); err != nil {
				return nil, err
			}
			met = Metric{Name: r.Name, Kind: MetricReconvergence, After: after, CleanName: clean}
		case "":
			return nil, errf("%s.kind: required (detection, redetection, trust-restoration, storm or reconvergence)", path)
		default:
			return nil, errf("%s.kind: unknown metric kind %q", path, probe.Kind)
		}
		sc.Measure.Metrics = append(sc.Measure.Metrics, met)
	}
	return streams, nil
}

// famFormats whitelists the famCell verbs a ColFam column may use.
var famFormats = map[string]bool{"%.0f": true, "%.1f": true, "%.2f": true, "%.3f": true}

func compileColumns(sc *Scenario, m *rawMeasure, streams map[string]streamType) error {
	if len(m.Columns) == 0 {
		return errf("measure.columns: required for the cluster program")
	}
	if len(m.Columns) > maxColumns {
		return errf("measure.columns: more than %d columns", maxColumns)
	}
	for i, rc := range m.Columns {
		path := fmt.Sprintf("measure.columns[%d]", i)
		if rc.Header == "" {
			return errf("%s.header: required", path)
		}
		if len(rc.Header) > maxNameLen {
			return errf("%s.header: longer than %d bytes", path, maxNameLen)
		}
		st, ok := streams[rc.Metric]
		if !ok {
			return errf("%s.metric: unknown metric %q", path, rc.Metric)
		}
		col := Column{Header: rc.Header, Metric: rc.Metric}
		switch rc.Kind {
		case "fam_ms":
			if st != streamDetection && st != streamDuration {
				return errf("%s.kind: fam_ms needs a detection or reconvergence metric, %q is %s-valued", path, rc.Metric, streamName(st))
			}
			col.Kind = ColFamMS
		case "max_ms":
			if st != streamDetection && st != streamDuration {
				return errf("%s.kind: max_ms needs a detection or reconvergence metric, %q is %s-valued", path, rc.Metric, streamName(st))
			}
			col.Kind = ColMaxMS
		case "missing":
			if st != streamDetection {
				return errf("%s.kind: missing needs a detection metric, %q is %s-valued", path, rc.Metric, streamName(st))
			}
			col.Kind = ColMissing
		case "fam":
			if st != streamScalar {
				return errf("%s.kind: fam needs a scalar metric, %q is %s-valued", path, rc.Metric, streamName(st))
			}
			col.Kind = ColFam
			col.Format = rc.Format
			if col.Format == "" {
				col.Format = "%.1f"
			}
			if !famFormats[col.Format] {
				return errf("%s.format: unsupported format %q (want %%.0f, %%.1f, %%.2f or %%.3f)", path, col.Format)
			}
		case "ratio":
			if st != streamBool {
				return errf("%s.kind: ratio needs a 0/1 indicator metric, %q is %s-valued", path, rc.Metric, streamName(st))
			}
			col.Kind = ColRatio
		case "":
			return errf("%s.kind: required (fam_ms, max_ms, missing, fam or ratio)", path)
		default:
			return errf("%s.kind: unknown column kind %q", path, rc.Kind)
		}
		if rc.Format != "" && col.Kind != ColFam {
			return errf("%s.format: only fam columns take a format", path)
		}
		sc.Measure.Columns = append(sc.Measure.Columns, col)
	}
	return nil
}

func streamName(st streamType) string {
	switch st {
	case streamDetection:
		return "detection"
	case streamDuration:
		return "duration"
	case streamScalar:
		return "scalar"
	case streamBool:
		return "indicator"
	default:
		return "stream?"
	}
}

// knownTopologies mirrors exp's LT graph families (exp's
// TestScenarioNameListsMatchEngine).
var knownTopologies = map[string]bool{"ring": true, "grid": true, "scale-free": true, "manet": true}

func compileTopologyProgram(sc *Scenario, cl *rawCluster, rawF json.RawMessage, m *rawMeasure) error {
	// The topology program builds its own neighbor-heartbeat machines per
	// graph; of the cluster section only the delay model applies.
	if err := rejectFields("cluster", "the topology program", map[string]bool{
		"n":               cl.N != 0,
		"f":               cl.F != 0,
		"window_us":       cl.WindowUS != 0,
		"interval_us":     cl.IntervalUS != 0,
		"rebroadcast_us":  cl.RebroadcastUS != 0,
		"disable_tags":    cl.DisableTags,
		"hb_interval_us":  cl.HBIntervalUS != 0,
		"hb_timeout_us":   cl.HBTimeoutUS != 0,
		"phi_threshold":   cl.PhiThreshold != 0,
		"chen_alpha_us":   cl.ChenAlphaUS != 0,
		"count_bytes":     cl.CountBytes,
		"start_jitter_us": cl.StartJitterUS != 0,
	}); err != nil {
		return err
	}
	if len(cl.Detectors) != 1 || cl.Detectors[0] != "heartbeat" {
		return errf(`cluster.detectors: the topology program runs the neighbor-local heartbeat only (want ["heartbeat"])`)
	}
	delay, err := compileDelay("cluster.delay", cl.Delay)
	if err != nil {
		return err
	}
	sc.Cluster = ClusterSpec{Detectors: cl.Detectors, Delay: delay}
	sc.Measure.Program = ProgramTopology
	if err := rejectFields("measure", "the topology program", map[string]bool{
		"warm_us":    m.WarmUS != 0,
		"metrics":    len(m.Metrics) > 0,
		"columns":    len(m.Columns) > 0,
		"propose_us": m.ProposeUS != 0,
	}); err != nil {
		return err
	}
	if sc.Measure.Horizon, err = usDur("measure.horizon_us", m.HorizonUS); err != nil {
		return err
	}
	if sc.Measure.Horizon <= 0 {
		return errf("measure.horizon_us: must be positive")
	}
	if len(m.Topologies) == 0 {
		return errf("measure.topologies: required for the topology program")
	}
	seen := map[string]bool{}
	for i, topo := range m.Topologies {
		if !knownTopologies[topo] {
			return errf("measure.topologies[%d]: unknown topology %q (want ring, grid, scale-free or manet)", i, topo)
		}
		if seen[topo] {
			return errf("measure.topologies[%d]: duplicate topology %q", i, topo)
		}
		seen[topo] = true
	}
	sc.Measure.Topologies = m.Topologies
	if len(m.Ns) == 0 {
		return errf("measure.ns: required for the topology program")
	}
	if len(m.Ns) > maxNsEntries {
		return errf("measure.ns: more than %d sizes", maxNsEntries)
	}
	for i, n := range m.Ns {
		if n < 4 || n > maxTopologyN {
			return errf("measure.ns[%d]: must be in [4, %d], got %d", i, maxTopologyN, n)
		}
	}
	sc.Measure.Ns = m.Ns
	if sc.Measure.CrashAt, err = usDur("measure.crash_at_us", m.CrashAtUS); err != nil {
		return err
	}
	if sc.Measure.CrashAt <= 0 || sc.Measure.CrashAt >= sc.Measure.Horizon {
		return errf("measure.crash_at_us: must fall inside (0, horizon)")
	}
	if sc.Measure.Interval, err = usDur("measure.interval_us", m.IntervalUS); err != nil {
		return err
	}
	if sc.Measure.Timeout, err = usDur("measure.timeout_us", m.TimeoutUS); err != nil {
		return err
	}
	if sc.Measure.Interval == 0 {
		sc.Measure.Interval = time.Second
	}
	if sc.Measure.Timeout == 0 {
		sc.Measure.Timeout = 2 * time.Second
	}
	if sc.Measure.Timeout <= sc.Measure.Interval {
		return errf("measure.timeout_us: must exceed interval_us")
	}
	_, sc.Variants, err = compileVariants(rawF, 0, sc.Measure.Horizon, false)
	return err
}

func compileConsensusProgram(sc *Scenario, cl *rawCluster, rawF json.RawMessage, m *rawMeasure) error {
	spec, err := compileClusterSpec(cl)
	if err != nil {
		return err
	}
	if spec.F < 1 {
		return errf("cluster.f: the consensus program needs f >= 1")
	}
	if spec.N < 2*spec.F+1 {
		return errf("cluster.n: the consensus program needs n >= 2f+1 (got n=%d, f=%d)", spec.N, spec.F)
	}
	sc.Cluster = spec
	sc.Measure.Program = ProgramConsensus
	if err := rejectFields("measure", "the consensus program", map[string]bool{
		"warm_us":     m.WarmUS != 0,
		"metrics":     len(m.Metrics) > 0,
		"columns":     len(m.Columns) > 0,
		"topologies":  len(m.Topologies) > 0,
		"ns":          len(m.Ns) > 0,
		"crash_at_us": m.CrashAtUS != 0,
		"interval_us": m.IntervalUS != 0,
		"timeout_us":  m.TimeoutUS != 0,
	}); err != nil {
		return err
	}
	if sc.Measure.Horizon, err = usDur("measure.horizon_us", m.HorizonUS); err != nil {
		return err
	}
	if sc.Measure.Propose, err = usDur("measure.propose_us", m.ProposeUS); err != nil {
		return err
	}
	if sc.Measure.Propose <= 0 {
		return errf("measure.propose_us: must be positive")
	}
	if sc.Measure.Horizon <= sc.Measure.Propose {
		return errf("measure.horizon_us: must exceed propose_us")
	}
	header, variants, err := compileVariants(rawF, spec.N, sc.Measure.Horizon, true)
	if err != nil {
		return err
	}
	if len(variants) != 1 || header != "" {
		return errf("faults.variants: the consensus program takes a single unnamed fault schedule")
	}
	// At least one process must never crash, or no survivor can decide.
	if crashed := variants[0].Faults.IDs(); crashed.Len() >= spec.N {
		return errf("faults: every process crashes; at least one survivor is required")
	}
	sc.Variants = variants
	return nil
}
