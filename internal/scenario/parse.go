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
//
// Three mechanisms carry the file. A cursor holds the field path and the
// one error slot every check reports through, so a compile function reads
// as the schema of its section. A union is the table of one tagged choice
// (delay.model, events[].kind, ...): adding an alternative is one row plus
// its struct, and the "required"/"unknown" diagnostics list the table's own
// tags. optionalFields is the one statement of which program reads which
// optional field.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/topology"
	"asyncfd/internal/trace"
)

// Compile-time bounds. They exist to keep hostile inputs from ballooning
// memory during compilation (the fuzz harness parses arbitrary JSON); real
// configs sit far below all of them. Durations are bounded by
// trace.MaxDuration (cursor.dur).
const (
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

// ---------------------------------------------------------------------------
// Error policy: the cursor.

// cursor is a position in the document — the field path diagnostics name —
// plus the compilation's single error slot. The first failed check wins and
// later ones are dropped, so compile functions run straight through without
// returning errors; what they compute after a failure is discarded by Parse.
// The one obligation that leaves behind: a step that expands its input (a
// count-driven loop, a generator, a sort) must sit behind ok(), because the
// values it would run on may be the ones that failed their check.
type cursor struct {
	path string
	err  *error
}

// at descends into a named field, idx into a list element.
func (c cursor) at(field string) cursor {
	if c.path != "" {
		field = c.path + "." + field
	}
	return cursor{field, c.err}
}

func (c cursor) idx(i int) cursor { return cursor{c.path + "[" + strconv.Itoa(i) + "]", c.err} }

// ok reports whether every check so far, anywhere in the document, passed.
func (c cursor) ok() bool { return *c.err == nil }

// failf records "scenario: <path>: <message>" unless an error is already held.
func (c cursor) failf(format string, args ...any) {
	if !c.ok() {
		return
	}
	if c.path != "" {
		format = c.path + ": " + format
	}
	*c.err = fmt.Errorf("scenario: "+format, args...)
}

// check fails with the message unless cond holds, and returns cond.
func (c cursor) check(cond bool, format string, args ...any) bool {
	if !cond {
		c.failf(format, args...)
	}
	return cond
}

// strict decodes a section into v; an absent section is "required". It
// reports whether compilation is still error-free.
func (c cursor) strict(raw json.RawMessage, v any) bool {
	if len(raw) == 0 {
		c.failf("required")
	} else if err := strictUnmarshal(raw, v); err != nil {
		c.failf("%v", err)
	}
	return c.ok()
}

// dur converts the microsecond field to a duration, enforcing the
// non-negative bounded range every duration field shares.
func (c cursor) dur(field string, us int64) time.Duration {
	c = c.at(field)
	c.check(us >= 0, "must be >= 0, got %d", us)
	c.check(us <= int64(trace.MaxDuration/time.Microsecond), "%d exceeds the %v bound", us, trace.MaxDuration)
	return time.Duration(us) * time.Microsecond
}

// within checks an integer field against its closed range.
func (c cursor) within(v, lo, hi int) {
	c.check(v >= lo && v <= hi, "must be in [%d, %d], got %d", lo, hi, v)
}

// text checks a string field: present if required, and at most max bytes.
func (c cursor) text(s string, required bool, max int) {
	c.check(s != "" || !required, "required")
	c.check(len(s) <= max, "longer than %d bytes", max)
}

// id checks one process id against the cluster size.
func (c cursor) id(id, n int) ident.ID {
	c.check(id >= 0 && id < n, "process id %d outside [0, n=%d)", id, n)
	return ident.ID(id)
}

// ids checks a list of process ids, distinct over everything seen holds
// (one list, or all islands of a partition); dup words a repeat.
func (c cursor) ids(list []int, n int, seen map[int]bool, dup string) []ident.ID {
	out := make([]ident.ID, len(list))
	for i, id := range list {
		at := c.idx(i)
		out[i] = at.id(id, n)
		at.check(!seen[id], dup, id)
		seen[id] = true
	}
	return out
}

// names checks a list of distinct names, each of which known accepts (by
// not failing the cursor it is handed).
func (c cursor) names(list []string, what string, known func(c cursor, name string)) {
	seen := map[string]bool{}
	for i, name := range list {
		at := c.idx(i)
		known(at, name)
		at.check(!seen[name], "duplicate %s %q", what, name)
		seen[name] = true
	}
}

// orList renders two or more names as "a, b or c".
func orList(names []string) string {
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

// ---------------------------------------------------------------------------
// Tagged unions.

// union is one tagged choice of the format: what a tag is called in
// diagnostics, the field that carries it, and the alternatives in the order
// diagnostics list them.
type union[A any] struct {
	what, field string
	alts        []alt[A]
}

type alt[A any] struct {
	tag string
	is  A
}

// pick resolves a tag; c is the tag field's own position.
func (u union[A]) pick(c cursor, tag string) (a A, ok bool) {
	for _, alt := range u.alts {
		if alt.tag == tag {
			return alt.is, true
		}
	}
	tags := make([]string, len(u.alts))
	for i, alt := range u.alts {
		tags[i] = alt.tag
	}
	if tag == "" {
		c.failf("required (%s)", orList(tags))
	} else {
		c.failf("unknown %s %q (want %s)", u.what, tag, orList(tags))
	}
	return a, false
}

// env is what an alternative may consult beyond its own fields: the cluster
// size ids are checked against (and a replayed trace sizes its phase table
// by), the horizon, and the metric streams claimed so far. The topology
// program, which has no single cluster size, compiles its delay model with
// a nil env.
type env struct {
	n       int
	horizon time.Duration
	streams map[string]streamType
}

// decoder compiles one alternative of a union whose values are JSON objects.
type decoder[T any] func(c cursor, raw json.RawMessage, e *env) T

// compileUnion reads raw's tag loosely (the alternative's strict decode
// judges every other field), resolves it and runs the alternative.
func compileUnion[T any](u union[decoder[T]], c cursor, raw json.RawMessage, e *env) (out T) {
	var probe struct {
		Kind  string `json:"kind"`
		Model string `json:"model"`
	}
	if len(raw) == 0 {
		c.failf("required")
		return out
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		c.failf("%v", err)
		return out
	}
	tag := probe.Kind
	if u.field == "model" {
		tag = probe.Model
	}
	if compile, ok := u.pick(c.at(u.field), tag); ok {
		out = compile(c, raw, e)
	}
	return out
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
	var err error
	root := cursor{err: &err}
	// Probe the schema field first (loose decode) so a wrong or missing
	// schema is reported as such, not as an unknown-field error against v1.
	var probe struct {
		Schema string `json:"schema"`
	}
	var raw rawScenario
	var sc *Scenario
	if perr := json.Unmarshal(data, &probe); perr != nil {
		root.failf("%v", perr)
	} else if probe.Schema != Schema {
		root.at("schema").failf("unknown schema version %q (want %q)", probe.Schema, Schema)
	} else if root.strict(data, &raw) {
		if q := raw.Quick; quick && q != nil {
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
		sc = compile(root, &raw)
	}
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// doc is one document under compilation: the root cursor, the scenario
// being filled in and the decoded sections the programs read.
type doc struct {
	cursor
	sc      *Scenario
	cluster rawCluster
	faults  json.RawMessage
	measure rawMeasure
}

var programs = union[func(*doc)]{what: "program", alts: []alt[func(*doc)]{
	{string(ProgramCluster), (*doc).clusterProgram},
	{string(ProgramTopology), (*doc).topologyProgram},
	{string(ProgramConsensus), (*doc).consensusProgram},
}}

func compile(c cursor, raw *rawScenario) *Scenario {
	d := &doc{cursor: c, faults: raw.Faults, sc: &Scenario{
		Name:        raw.Name,
		Title:       raw.Title,
		Note:        raw.Note,
		Description: raw.Description,
		Repeat:      raw.Repeat,
	}}
	name := c.at("name")
	name.text(raw.Name, true, maxNameLen)
	for _, r := range raw.Name {
		letter := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_'
		name.check(letter, "%q contains %q; use letters, digits, - and _", raw.Name, r)
	}
	c.at("title").text(raw.Title, true, maxStringLen)
	c.at("note").text(raw.Note, false, maxStringLen)
	c.at("description").text(raw.Description, false, maxStringLen)
	c.at("repeat").within(raw.Repeat, 0, maxRepeat)
	if !c.at("measure").strict(raw.Measure, &d.measure) || !c.at("cluster").strict(raw.Cluster, &d.cluster) {
		return nil
	}
	compileProgram, ok := programs.pick(c.at("measure").at("program"), d.measure.Program)
	if !ok {
		return nil
	}
	prog := Program(d.measure.Program)
	d.sc.Measure.Program = prog
	for _, f := range optionalFields(&d.cluster, &d.measure) {
		read := !f.set || slices.Contains(f.readBy, prog)
		c.at(f.section).at(f.name).check(read, "not used by the %v program", prog)
	}
	compileProgram(d)
	return d.sc
}

// optionalField is one field a program may leave unread, and whether the
// document set it. Setting a field the chosen program ignores is an error:
// nothing in a config is silently dropped.
type optionalField struct {
	section, name string
	set           bool
	readBy        []Program
}

// optionalFields is the applicability table of the cluster and measure
// sections. (cluster.detectors, cluster.delay and measure.horizon_us are
// read by every program; faults is judged by compileVariants.)
func optionalFields(cl *rawCluster, m *rawMeasure) []optionalField {
	// The topology program builds its own neighbor-heartbeat machines per
	// graph; of the cluster section only the delay model applies to it.
	full := []Program{ProgramCluster, ProgramConsensus}
	cluster, topo, consensus := []Program{ProgramCluster}, []Program{ProgramTopology}, []Program{ProgramConsensus}
	return []optionalField{
		{"cluster", "n", cl.N != 0, full},
		{"cluster", "f", cl.F != 0, full},
		{"cluster", "window_us", cl.WindowUS != 0, full},
		{"cluster", "interval_us", cl.IntervalUS != 0, full},
		{"cluster", "rebroadcast_us", cl.RebroadcastUS != 0, full},
		{"cluster", "disable_tags", cl.DisableTags, full},
		{"cluster", "hb_interval_us", cl.HBIntervalUS != 0, full},
		{"cluster", "hb_timeout_us", cl.HBTimeoutUS != 0, full},
		{"cluster", "phi_threshold", cl.PhiThreshold != 0, full},
		{"cluster", "chen_alpha_us", cl.ChenAlphaUS != 0, full},
		{"cluster", "start_jitter_us", cl.StartJitterUS != 0, full},
		{"measure", "warm_us", m.WarmUS != 0, cluster},
		{"measure", "metrics", len(m.Metrics) > 0, cluster},
		{"measure", "columns", len(m.Columns) > 0, cluster},
		{"measure", "topologies", len(m.Topologies) > 0, topo},
		{"measure", "ns", len(m.Ns) > 0, topo},
		{"measure", "crash_at_us", m.CrashAtUS != 0, topo},
		{"measure", "interval_us", m.IntervalUS != 0, topo},
		{"measure", "timeout_us", m.TimeoutUS != 0, topo},
		{"measure", "propose_us", m.ProposeUS != 0, consensus},
	}
}

// ---------------------------------------------------------------------------
// Cluster section.

// clusterSpec compiles the cluster section for the programs that run the
// full detector cluster (cluster, consensus).
func (d *doc) clusterSpec() ClusterSpec {
	c, cl := d.at("cluster"), &d.cluster
	c.at("n").within(cl.N, 2, maxClusterN)
	c.at("f").check(cl.F >= 0 && cl.F < cl.N, "must be in [0, n), got %d", cl.F)
	c.at("detectors").check(len(cl.Detectors) > 0, "required")
	c.at("detectors").names(cl.Detectors, "detector", func(c cursor, name string) {
		known := slices.Contains(DetectorNames, name)
		c.check(known, "unknown detector %q (want %s)", name, orList(DetectorNames))
	})
	spec := ClusterSpec{
		N: cl.N, F: cl.F, Detectors: cl.Detectors,
		Delay:        compileUnion(delayModels, c.at("delay"), cl.Delay, &env{n: cl.N}),
		Window:       c.dur("window_us", cl.WindowUS),
		Interval:     c.dur("interval_us", cl.IntervalUS),
		Rebroadcast:  c.dur("rebroadcast_us", cl.RebroadcastUS),
		DisableTags:  cl.DisableTags,
		HBInterval:   c.dur("hb_interval_us", cl.HBIntervalUS),
		HBTimeout:    c.dur("hb_timeout_us", cl.HBTimeoutUS),
		PhiThreshold: cl.PhiThreshold,
		ChenAlpha:    c.dur("chen_alpha_us", cl.ChenAlphaUS),
		StartJitter:  c.dur("start_jitter_us", cl.StartJitterUS),
	}
	phi := cl.PhiThreshold
	c.at("phi_threshold").check(phi >= 0 && phi <= 100, "must be in [0, 100], got %v", phi)
	return spec
}

// ---------------------------------------------------------------------------
// Delay models.

var delayModels = union[decoder[netsim.DelayModel]]{
	what: "delay model", field: "model", alts: []alt[decoder[netsim.DelayModel]]{
		{"constant", constantDelay},
		{"uniform", uniformDelay},
		{"exponential", exponentialDelay},
		{"pareto", paretoDelay},
		{"trace", traceDelay},
	}}

func constantDelay(c cursor, raw json.RawMessage, _ *env) netsim.DelayModel {
	var r struct {
		Model string `json:"model"`
		DUS   int64  `json:"d_us"`
	}
	c.strict(raw, &r)
	return netsim.Constant{D: c.dur("d_us", r.DUS)}
}

func uniformDelay(c cursor, raw json.RawMessage, _ *env) netsim.DelayModel {
	var r struct {
		Model string `json:"model"`
		MinUS int64  `json:"min_us"`
		MaxUS int64  `json:"max_us"`
	}
	c.strict(raw, &r)
	m := netsim.Uniform{Min: c.dur("min_us", r.MinUS), Max: c.dur("max_us", r.MaxUS)}
	c.at("max_us").check(m.Max >= m.Min, "%d below min_us", r.MaxUS)
	return m
}

func exponentialDelay(c cursor, raw json.RawMessage, _ *env) netsim.DelayModel {
	var r struct {
		Model  string `json:"model"`
		MinUS  int64  `json:"min_us"`
		MeanUS int64  `json:"mean_us"`
		CapUS  int64  `json:"cap_us"`
	}
	c.strict(raw, &r)
	min, mean, cap := c.dur("min_us", r.MinUS), c.dur("mean_us", r.MeanUS), c.dur("cap_us", r.CapUS)
	m := netsim.Exponential{Min: min, Mean: mean, Cap: cap}
	c.at("mean_us").check(m.Mean > 0, "must be positive")
	return m
}

func paretoDelay(c cursor, raw json.RawMessage, _ *env) netsim.DelayModel {
	var r struct {
		Model   string  `json:"model"`
		ScaleUS int64   `json:"scale_us"`
		Alpha   float64 `json:"alpha"`
		CapUS   int64   `json:"cap_us"`
	}
	c.strict(raw, &r)
	m := netsim.Pareto{Scale: c.dur("scale_us", r.ScaleUS), Alpha: r.Alpha, Cap: c.dur("cap_us", r.CapUS)}
	c.at("scale_us").check(m.Scale > 0, "must be positive")
	c.at("alpha").check(r.Alpha > 0, "must be positive, got %v", r.Alpha)
	return m
}

// traceDelay compiles a replayed trace for a cluster of e.n processes. The
// replay holds a phase for every ordered pair of processes, 8·n² bytes: 8 MiB
// at maxClusterN, but 512 MiB at the topology program's maxTopologyN, so
// that program (nil e) refuses the model.
func traceDelay(c cursor, raw json.RawMessage, e *env) netsim.DelayModel {
	if !c.at("model").check(e != nil, "the topology program does not replay traces "+
		"(a replay holds 8·n² bytes of link phases, %d MiB at n = %d)", 8*maxTopologyN*maxTopologyN>>20, maxTopologyN) {
		return nil
	}
	var r struct {
		Model     string          `json:"model"`
		Series    json.RawMessage `json:"series,omitempty"`
		Synthetic json.RawMessage `json:"synthetic,omitempty"`
	}
	c.strict(raw, &r)
	if !c.check((r.Series == nil) != (r.Synthetic == nil), "exactly one of series and synthetic is required") {
		return nil
	}
	if r.Series != nil {
		series, err := trace.ParseDelaySeries(r.Series)
		if err != nil {
			c.at("series").failf("%v", err)
		}
		if !c.ok() {
			return nil // n may be the value that failed its check
		}
		return netsim.NewReplay(series, e.n)
	}
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
	c = c.at("synthetic")
	c.strict(r.Synthetic, &s)
	cfg := trace.SyntheticConfig{
		Seed: s.Seed, Count: s.Count, Alpha: s.Alpha, LossRate: s.Loss,
		Tick: c.dur("tick_us", s.TickUS), Base: c.dur("base_us", s.BaseUS),
		Scale: c.dur("scale_us", s.ScaleUS), Cap: c.dur("cap_us", s.CapUS),
	}
	if !c.ok() {
		return nil // Synthetic allocates cfg.Count samples; only a checked config may ask
	}
	series, err := trace.Synthetic(cfg)
	if err != nil {
		c.failf("%v", err)
		return nil
	}
	return netsim.NewReplay(series, e.n)
}

// ---------------------------------------------------------------------------
// Fault schedules.

// compileVariants compiles the faults section into named variants. e.n
// bounds the valid process ids; e.horizon bounds event times.
func (d *doc) compileVariants(e *env) (header string, variants []Variant) {
	c, f := d.at("faults"), d.decodeFaults()
	if len(f.Variants) == 0 {
		// Bare (or absent) form: one unnamed variant.
		c.at("variant_header").check(f.VariantHeader == "", "requires a variants list")
		return "", []Variant{{Faults: c.schedule(f.Events, f.Generators, e)}}
	}
	c.at("variants").check(len(f.Variants) <= maxVariants, "more than %d variants", maxVariants)
	c.at("variant_header").check(len(f.Variants) == 1 || f.VariantHeader != "",
		"required when multiple variants are listed")
	names := map[string]bool{}
	variants = make([]Variant, len(f.Variants))
	for i, rv := range f.Variants {
		v := c.at("variants").idx(i)
		v.at("name").text(rv.Name, true, maxNameLen)
		v.at("name").check(!names[rv.Name], "duplicate variant %q", rv.Name)
		names[rv.Name] = true
		variants[i] = Variant{Name: rv.Name, Faults: v.schedule(rv.Events, rv.Generators, e)}
	}
	return f.VariantHeader, variants
}

// decodeFaults decodes the optional faults section.
func (d *doc) decodeFaults() (f rawFaults) {
	c := d.at("faults")
	if len(d.faults) != 0 {
		c.strict(d.faults, &f)
	}
	c.check(len(f.Variants) == 0 || len(f.Events)+len(f.Generators) == 0,
		"use either variants or bare events/generators, not both")
	return f
}

// schedule compiles one variant's events and generators into a validated
// faults.Schedule (generators expanded, in listed order after the explicit
// events).
func (c cursor) schedule(events, generators []json.RawMessage, e *env) faults.Schedule {
	var sched faults.Schedule
	for i, raw := range events {
		sched = append(sched, compileUnion(eventKinds, c.at("events").idx(i), raw, e))
	}
	for i, raw := range generators {
		g := c.at("generators").idx(i)
		sched = append(sched, compileUnion(generatorKinds, g, raw, e)...)
		g.check(len(sched) <= maxEvents, "schedule exceeds %d events", maxEvents)
	}
	c.at("events").check(len(sched) <= maxEvents, "schedule exceeds %d events", maxEvents)
	if c.ok() {
		c.validateSchedule(sched, e.horizon)
	}
	return sched
}

var eventKinds = union[decoder[faults.Event]]{
	what: "event kind", field: "kind", alts: []alt[decoder[faults.Event]]{
		{string(faults.KindCrash), crashEvent},
		{string(faults.KindRecover), recoverEvent},
		{string(faults.KindPartition), partitionEvent},
		{string(faults.KindHeal), healEvent},
	}}

func crashEvent(c cursor, raw json.RawMessage, e *env) faults.Event {
	var r struct {
		Kind string `json:"kind"`
		AtUS int64  `json:"at_us"`
		ID   int    `json:"id"`
	}
	c.strict(raw, &r)
	return faults.Event{At: c.dur("at_us", r.AtUS), Kind: faults.KindCrash, ID: c.at("id").id(r.ID, e.n)}
}

func recoverEvent(c cursor, raw json.RawMessage, e *env) faults.Event {
	var r struct {
		Kind  string `json:"kind"`
		AtUS  int64  `json:"at_us"`
		ID    int    `json:"id"`
		Fresh bool   `json:"fresh,omitempty"`
	}
	c.strict(raw, &r)
	at, id := c.dur("at_us", r.AtUS), c.at("id").id(r.ID, e.n)
	return faults.Event{At: at, Kind: faults.KindRecover, ID: id, FreshState: r.Fresh}
}

func partitionEvent(c cursor, raw json.RawMessage, e *env) faults.Event {
	var r struct {
		Kind    string  `json:"kind"`
		AtUS    int64   `json:"at_us"`
		Islands [][]int `json:"islands"`
	}
	c.strict(raw, &r)
	at, islands := c.dur("at_us", r.AtUS), c.at("islands").islands(r.Islands, e.n)
	return faults.Event{At: at, Kind: faults.KindPartition, Islands: islands}
}

func healEvent(c cursor, raw json.RawMessage, _ *env) faults.Event {
	var r struct {
		Kind string `json:"kind"`
		AtUS int64  `json:"at_us"`
	}
	c.strict(raw, &r)
	return faults.Event{At: c.dur("at_us", r.AtUS), Kind: faults.KindHeal}
}

// islands validates one partition's islands — non-empty, valid ids, no
// process in two islands (the invariant netsim.Partition panics on), and a
// cut: one island of all n processes drops no message.
func (c cursor) islands(islands [][]int, n int) [][]ident.ID {
	c.check(len(islands) > 0, "at least one island is required")
	c.check(len(islands) <= maxIslandLists, "more than %d islands", maxIslandLists)
	seen := map[int]bool{}
	out := make([][]ident.ID, len(islands))
	for i, island := range islands {
		at := c.idx(i)
		at.check(len(island) > 0, "island must not be empty")
		out[i] = at.ids(island, n, seen, "process %d listed in two islands")
	}
	c.check(len(islands) != 1 || len(islands[0]) < n, "one island of all n=%d processes cuts no one", n)
	return out
}

var generatorKinds = union[decoder[faults.Schedule]]{
	what: "generator kind", field: "kind", alts: []alt[decoder[faults.Schedule]]{
		{"flap", flapGenerator},
		{"crash-burst", crashBurstGenerator},
		{"uniform-crashes", uniformCrashesGenerator},
	}}

// flapGenerator is a flapping-link train: partition into islands at
// at + k·period, heal down later, for count cycles.
func flapGenerator(c cursor, raw json.RawMessage, e *env) faults.Schedule {
	var r struct {
		Kind     string  `json:"kind"`
		Islands  [][]int `json:"islands"`
		AtUS     int64   `json:"at_us"`
		DownUS   int64   `json:"down_us"`
		PeriodUS int64   `json:"period_us"`
		Count    int     `json:"count"`
	}
	c.strict(raw, &r)
	at, down, period := c.dur("at_us", r.AtUS), c.dur("down_us", r.DownUS), c.dur("period_us", r.PeriodUS)
	c.at("down_us").check(down > 0, "must be positive")
	c.at("period_us").check(period > down, "must exceed down_us (%d)", r.DownUS)
	c.at("count").within(r.Count, 1, maxFlapCount)
	islands := c.at("islands").islands(r.Islands, e.n)
	if !c.ok() {
		return nil // the loop below is bounded by nothing but the count check
	}
	var out faults.Schedule
	for k := 0; k < r.Count; k++ {
		start := at + time.Duration(k)*period
		out = out.PartitionAt(start, islands...).HealAt(start + down)
	}
	return out
}

// crashBurstGenerator is a correlated crash burst: the listed processes
// crash in order, spacing apart.
func crashBurstGenerator(c cursor, raw json.RawMessage, e *env) faults.Schedule {
	var r struct {
		Kind      string `json:"kind"`
		IDs       []int  `json:"ids"`
		AtUS      int64  `json:"at_us"`
		SpacingUS int64  `json:"spacing_us"`
	}
	c.strict(raw, &r)
	at, spacing := c.dur("at_us", r.AtUS), c.dur("spacing_us", r.SpacingUS)
	c.at("ids").check(len(r.IDs) > 0, "required")
	var out faults.Schedule
	for j, id := range c.at("ids").ids(r.IDs, e.n, map[int]bool{}, "duplicate process %d") {
		out = out.CrashAt(id, at+time.Duration(j)*spacing)
	}
	return out
}

// uniformCrashesGenerator is the paper family's "faults uniformly inserted"
// plan, reproducible from its own seed (faults.Uniform).
func uniformCrashesGenerator(c cursor, raw json.RawMessage, e *env) faults.Schedule {
	var r struct {
		Kind       string `json:"kind"`
		Seed       int64  `json:"seed"`
		Count      int    `json:"count"`
		Candidates []int  `json:"candidates"`
		StartUS    int64  `json:"start_us"`
		EndUS      int64  `json:"end_us"`
	}
	c.strict(raw, &r)
	start, end := c.dur("start_us", r.StartUS), c.dur("end_us", r.EndUS)
	c.at("end_us").check(end > start, "must exceed start_us")
	c.at("candidates").check(len(r.Candidates) > 0, "required")
	cands := c.at("candidates").ids(r.Candidates, e.n, map[int]bool{}, "duplicate process %d")
	c.at("count").check(r.Count >= 1 && r.Count <= len(cands),
		"must be in [1, len(candidates)=%d], got %d", len(cands), r.Count)
	if !c.ok() {
		return nil // Uniform permutes and allocates by its arguments
	}
	//fdlint:allow rngdiscipline deterministic generator expansion at parse time, outside any kernel
	return faults.Uniform(rand.New(rand.NewSource(r.Seed)), cands, r.Count, start, end)
}

// validateSchedule enforces, over the time-sorted schedule, the invariants
// the downstream layers assume rather than tolerate: every event fires
// before the horizon, each process's crash/recover events strictly
// alternate starting with a crash (GroundTruth would silently no-op the
// violations), and every heal matches an active partition.
func (c cursor) validateSchedule(sched faults.Schedule, horizon time.Duration) {
	ordered := append(faults.Schedule(nil), sched...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	down := map[ident.ID]bool{}
	depth := 0
	for _, e := range ordered {
		c.check(e.At < horizon, "%s of %v at %v does not precede the horizon (%v)", e.Kind, e.ID, e.At, horizon)
		switch e.Kind {
		case faults.KindCrash:
			c.check(!down[e.ID], "%v crashes at %v while already down", e.ID, e.At)
			down[e.ID] = true
		case faults.KindRecover:
			c.check(down[e.ID], "%v recovers at %v without a preceding crash", e.ID, e.At)
			down[e.ID] = false
		case faults.KindPartition:
			depth++
		case faults.KindHeal:
			c.check(depth > 0, "heal at %v without an active partition", e.At)
			depth--
		}
	}
}

// ---------------------------------------------------------------------------
// Measurement programs.

func (d *doc) clusterProgram() {
	sc, m, ms := d.sc, d.at("measure"), &d.measure
	sc.Cluster = d.clusterSpec()
	sc.Measure.Warm = m.dur("warm_us", ms.WarmUS)
	sc.Measure.Horizon = m.dur("horizon_us", ms.HorizonUS)
	m.at("horizon_us").check(sc.Measure.Horizon > sc.Measure.Warm, "must exceed warm_us")
	e := &env{n: sc.Cluster.N, horizon: sc.Measure.Horizon, streams: map[string]streamType{}}
	sc.VariantHeader, sc.Variants = d.compileVariants(e)

	metrics := m.at("metrics")
	metrics.check(len(ms.Metrics) > 0, "required for the cluster program")
	metrics.check(len(ms.Metrics) <= maxMetrics, "more than %d metrics", maxMetrics)
	for i, raw := range ms.Metrics {
		sc.Measure.Metrics = append(sc.Measure.Metrics, compileUnion(metricKinds, metrics.idx(i), raw, e))
	}
	columns := m.at("columns")
	columns.check(len(ms.Columns) > 0, "required for the cluster program")
	columns.check(len(ms.Columns) <= maxColumns, "more than %d columns", maxColumns)
	for i, rc := range ms.Columns {
		sc.Measure.Columns = append(sc.Measure.Columns, columns.idx(i).column(rc, e.streams))
	}
}

// streamType is the value type a metric's per-replicate stream carries;
// columns must aggregate compatible streams.
type streamType string

const (
	streamDetection streamType = "detection" // qos.DetectionStats
	streamDuration  streamType = "duration"  // time.Duration (reconvergence settle)
	streamScalar    streamType = "scalar"    // float64 (storm count)
	streamBool      streamType = "indicator" // 0/1 indicator (reconvergence clean)
)

// claim registers a metric stream under a fresh name.
func (e *env) claim(c cursor, name string, st streamType) {
	c.text(name, true, maxNameLen)
	_, dup := e.streams[name]
	c.check(!dup, "duplicate metric name %q", name)
	e.streams[name] = st
}

var metricKinds = union[decoder[Metric]]{
	what: "metric kind", field: "kind", alts: []alt[decoder[Metric]]{
		{string(MetricDetection), detectionMetric(MetricDetection)},
		{string(MetricRedetection), detectionMetric(MetricRedetection)},
		{string(MetricTrustRestoration), detectionMetric(MetricTrustRestoration)},
		{string(MetricStorm), stormMetric},
		{string(MetricReconvergence), reconvergenceMetric},
	}}

// detectionMetric is the detection family: one shape, three judgments.
func detectionMetric(kind MetricKind) decoder[Metric] {
	return func(c cursor, raw json.RawMessage, e *env) Metric {
		var r struct {
			Kind      string `json:"kind"`
			Name      string `json:"name"`
			Victim    int    `json:"victim"`
			Observers []int  `json:"observers,omitempty"`
			Episode   int    `json:"episode,omitempty"`
		}
		c.strict(raw, &r)
		e.claim(c.at("name"), r.Name, streamDetection)
		met := Metric{Name: r.Name, Kind: kind, Victim: c.at("victim").id(r.Victim, e.n), Episode: r.Episode}
		c.at("episode").within(r.Episode, 0, maxEpisode)
		if kind == MetricDetection {
			c.at("episode").check(r.Episode == 0, "not used by detection (use redetection)")
		}
		met.Observers = c.at("observers").ids(r.Observers, e.n, map[int]bool{}, "duplicate process %d")
		if j := slices.Index(r.Observers, r.Victim); j >= 0 {
			c.at("observers").idx(j).failf("the victim cannot observe itself")
		}
		return met
	}
}

func stormMetric(c cursor, raw json.RawMessage, e *env) Metric {
	var r struct {
		Kind   string `json:"kind"`
		Name   string `json:"name"`
		FromUS int64  `json:"from_us"`
		ToUS   int64  `json:"to_us"`
	}
	c.strict(raw, &r)
	e.claim(c.at("name"), r.Name, streamScalar)
	met := Metric{Name: r.Name, Kind: MetricStorm, From: c.dur("from_us", r.FromUS), To: c.dur("to_us", r.ToUS)}
	c.at("to_us").check(met.To > met.From, "must exceed from_us")
	c.at("to_us").check(met.To <= e.horizon, "beyond the horizon (%v)", e.horizon)
	return met
}

func reconvergenceMetric(c cursor, raw json.RawMessage, e *env) Metric {
	var r struct {
		Kind      string `json:"kind"`
		Name      string `json:"name"`
		AfterUS   int64  `json:"after_us"`
		CleanName string `json:"clean_name,omitempty"`
	}
	c.strict(raw, &r)
	e.claim(c.at("name"), r.Name, streamDuration)
	after := c.dur("after_us", r.AfterUS)
	c.at("after_us").check(after < e.horizon, "must precede the horizon (%v)", e.horizon)
	if r.CleanName == "" {
		r.CleanName = "clean"
	}
	e.claim(c.at("clean_name"), r.CleanName, streamBool)
	return Metric{Name: r.Name, Kind: MetricReconvergence, After: after, CleanName: r.CleanName}
}

// columnKind is one alternative of columns[].kind: the metric streams the
// aggregation can fold ("needs" words them for the diagnostic).
type columnKind struct {
	needs   string
	streams []streamType
}

var columnKinds = union[columnKind]{what: "column kind", alts: []alt[columnKind]{
	{string(ColFamMS), columnKind{"a detection or reconvergence", []streamType{streamDetection, streamDuration}}},
	{string(ColMaxMS), columnKind{"a detection or reconvergence", []streamType{streamDetection, streamDuration}}},
	{string(ColMissing), columnKind{"a detection", []streamType{streamDetection}}},
	{string(ColFam), columnKind{"a scalar", []streamType{streamScalar}}},
	{string(ColRatio), columnKind{"a 0/1 indicator", []streamType{streamBool}}},
}}

// famFormats are the famCell verbs a ColFam column may use.
var famFormats = []string{"%.0f", "%.1f", "%.2f", "%.3f"}

func (c cursor) column(rc rawColumn, streams map[string]streamType) Column {
	c.at("header").text(rc.Header, true, maxNameLen)
	st, known := streams[rc.Metric]
	c.at("metric").check(known, "unknown metric %q", rc.Metric)
	ck, _ := columnKinds.pick(c.at("kind"), rc.Kind)
	c.at("kind").check(slices.Contains(ck.streams, st),
		"%s needs %s metric, %q is %s-valued", rc.Kind, ck.needs, rc.Metric, st)
	col := Column{Header: rc.Header, Metric: rc.Metric, Kind: ColumnKind(rc.Kind), Format: rc.Format}
	switch {
	case col.Kind != ColFam:
		c.at("format").check(rc.Format == "", "only fam columns take a format")
	case rc.Format == "":
		col.Format = "%.1f"
	default:
		c.at("format").check(slices.Contains(famFormats, rc.Format),
			"unsupported format %q (want %s)", rc.Format, orList(famFormats))
	}
	return col
}

func (d *doc) topologyProgram() {
	sc, c, cl, m, ms := d.sc, d.at("cluster"), &d.cluster, d.at("measure"), &d.measure
	c.at("detectors").check(len(cl.Detectors) == 1 && cl.Detectors[0] == "heartbeat",
		`the topology program runs the neighbor-local heartbeat only (want ["heartbeat"])`)
	sc.Cluster.Detectors, sc.Cluster.Delay = cl.Detectors, compileUnion(delayModels, c.at("delay"), cl.Delay, nil)
	me := &sc.Measure
	me.Horizon = m.dur("horizon_us", ms.HorizonUS)
	m.at("horizon_us").check(me.Horizon > 0, "must be positive")
	m.at("topologies").check(len(ms.Topologies) > 0, "required for the topology program")
	m.at("topologies").names(ms.Topologies, "topology", func(c cursor, name string) {
		if _, err := topology.Family(name); err != nil {
			c.failf("%v", err)
		}
	})
	me.Topologies = ms.Topologies
	m.at("ns").check(len(ms.Ns) > 0, "required for the topology program")
	m.at("ns").check(len(ms.Ns) <= maxNsEntries, "more than %d sizes", maxNsEntries)
	for i, n := range ms.Ns {
		m.at("ns").idx(i).within(n, 4, maxTopologyN)
	}
	me.Ns = ms.Ns
	me.CrashAt = m.dur("crash_at_us", ms.CrashAtUS)
	m.at("crash_at_us").check(me.CrashAt > 0 && me.CrashAt < me.Horizon, "must fall inside (0, horizon)")
	me.Interval, me.Timeout = m.dur("interval_us", ms.IntervalUS), m.dur("timeout_us", ms.TimeoutUS)
	if me.Interval == 0 {
		me.Interval = time.Second
	}
	if me.Timeout == 0 {
		me.Timeout = 2 * time.Second
	}
	m.at("timeout_us").check(me.Timeout > me.Interval, "must exceed interval_us")
	f := d.decodeFaults()
	d.at("faults").check(len(f.Variants)+len(f.Events)+len(f.Generators) == 0 && f.VariantHeader == "",
		"the topology program does not take a fault schedule (measure.crash_at_us scripts its crash)")
	sc.Variants = []Variant{{}}
}

func (d *doc) consensusProgram() {
	sc, m, ms := d.sc, d.at("measure"), &d.measure
	sc.Cluster = d.clusterSpec()
	n, f := sc.Cluster.N, sc.Cluster.F
	d.at("cluster").at("f").check(f >= 1, "the consensus program needs f >= 1")
	d.at("cluster").at("n").check(n >= 2*f+1, "the consensus program needs n >= 2f+1 (got n=%d, f=%d)", n, f)
	sc.Measure.Horizon, sc.Measure.Propose = m.dur("horizon_us", ms.HorizonUS), m.dur("propose_us", ms.ProposeUS)
	m.at("propose_us").check(sc.Measure.Propose > 0, "must be positive")
	m.at("horizon_us").check(sc.Measure.Horizon > sc.Measure.Propose, "must exceed propose_us")
	header, variants := d.compileVariants(&env{n: n, horizon: sc.Measure.Horizon})
	single := len(variants) == 1 && header == ""
	if !d.at("faults").at("variants").check(single, "the consensus program takes a single unnamed fault schedule") {
		return
	}
	// At least one process must never crash, or no survivor can decide.
	crashed := variants[0].Faults.IDs().Len()
	d.at("faults").check(crashed < n, "every process crashes; at least one survivor is required")
	sc.Variants = variants
}
