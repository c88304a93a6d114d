// Package scenario is the asyncfd-scenario/v1 configuration layer:
// experiments as data instead of code. A scenario JSON document describes a
// cluster (size, detector set, delay model — parametric or recorded-trace
// replay), a fault schedule (explicit crash/recover/partition/heal events
// plus generators for flapping-link trains, crash bursts and uniform crash
// plans), and a measurement program (which qos metrics to extract, how to
// aggregate them into table columns, warm/fork horizon, repeat count).
//
// Parse compiles a document into the typed Scenario in this package —
// netsim.DelayModel, faults.Schedule, ident ids — which
// internal/exp.ScenarioTable then executes on the exact machinery the
// built-in experiments use (the cell grid, the shared formatters, the v2
// sample collector). The compilation bar is strict: any input either
// yields a fully validated scenario or an error naming the offending
// field path; nothing silently defaults and nothing downstream panics
// (partition island overlaps, out-of-order crash/recover pairs and friends
// are all rejected here). FuzzScenarioConfig holds the package to that
// contract.
//
// This package deliberately does not import internal/exp (the execution
// engine imports us), performs no file IO (callers hand it bytes; inline
// trace series keep configs self-contained), and draws no randomness except
// the explicitly seeded generators (uniform-crashes, synthetic traces) —
// so a config names one deterministic experiment, byte-identical at any
// -parallel width, fork on or off.
package scenario

import (
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
)

// Schema is the JSON schema identifier this package accepts.
const Schema = "asyncfd-scenario/v1"

// DetectorNames lists the valid cluster.detectors entries, in the canonical
// presentation order of the built-in sweeps. They are exp.AllKinds() as
// strings (exp's TestScenarioNameListsMatchEngine).
var DetectorNames = []string{"async", "heartbeat", "phi-accrual", "chen-nfde"}

// Program selects the measurement harness a scenario runs on; its value
// is the measure.program tag.
type Program string

const (
	// ProgramCluster is the general harness: the full detector Cluster with
	// a per-variant fault schedule, configurable qos metrics and columns
	// (the harness behind E-series, R1 and R2).
	ProgramCluster Program = "cluster"
	// ProgramTopology is the fixed-shape large-n sweep: neighbor-local
	// heartbeat detection over ring/grid/scale-free/MANET graphs, one crash,
	// detection + traffic columns (the LT harness).
	ProgramTopology Program = "topology"
	// ProgramConsensus is the fixed-shape theory bridge: Chandra–Toueg
	// consensus over each detector with a scripted fault schedule, worst
	// survivor decision latency (the E7 harness, generalized to arbitrary
	// schedules).
	ProgramConsensus Program = "consensus"
)

// MetricKind names a qos measurement the cluster program extracts per
// replicate; its value is the metrics[].kind tag.
type MetricKind string

const (
	// MetricDetection is qos.NewDetectionTimes of the victim's first
	// crash over the observers.
	MetricDetection MetricKind = "detection"
	// MetricRedetection is qos.NewRedetectionTimes of downtime episode
	// Episode (0 = first crash).
	MetricRedetection MetricKind = "redetection"
	// MetricTrustRestoration is qos.NewTrustRestorationTimes after
	// recovery Episode.
	MetricTrustRestoration MetricKind = "trust-restoration"
	// MetricStorm is qos.NewMistakeStorm over [From, To).
	MetricStorm MetricKind = "storm"
	// MetricReconvergence is qos.NewReconvergence from After; it yields
	// the settle duration under the metric's name and a 0/1 clean indicator
	// under CleanName.
	MetricReconvergence MetricKind = "reconvergence"
)

// Metric is one compiled per-replicate measurement of the cluster program.
type Metric struct {
	// Name keys the metric's samples in the v2 rows (detection-family
	// metrics append _avg_ms/_max_ms) and is what columns reference.
	Name string
	Kind MetricKind
	// Victim is the judged process of detection-family metrics.
	Victim ident.ID
	// Observers restricts which processes' suspicions are judged; empty =
	// every cluster member except the victim.
	Observers []ident.ID
	// Episode selects the downtime/recovery episode of redetection and
	// trust-restoration metrics (0-based).
	Episode int
	// From, To bound a storm metric's counting window.
	From, To time.Duration
	// After is a reconvergence metric's start (typically the heal time).
	After time.Duration
	// CleanName keys the reconvergence clean indicator (default "clean").
	CleanName string
}

// ColumnKind names the aggregation a table column applies to its metric's
// replicate values; its value is the columns[].kind tag.
type ColumnKind string

const (
	// ColFamMS renders mean ±ci95 in milliseconds (famMS): over the
	// per-replicate averages of a detection-family metric, or the
	// per-replicate settle durations of a reconvergence metric.
	ColFamMS ColumnKind = "fam_ms"
	// ColMaxMS renders the worst observation across the family in
	// milliseconds: max of maxima for detection-family metrics, max settle
	// for reconvergence.
	ColMaxMS ColumnKind = "max_ms"
	// ColMissing renders the total missed detections across the family
	// (detection-family metrics only).
	ColMissing ColumnKind = "missing"
	// ColFam renders mean ±ci95 of a scalar metric under Format.
	ColFam ColumnKind = "fam"
	// ColRatio renders "k/R": the number of replicates whose 0/1 indicator
	// was nonzero, over the family size.
	ColRatio ColumnKind = "ratio"
)

// Column is one compiled table column of the cluster program.
type Column struct {
	Header string
	// Metric names the Metric (or reconvergence CleanName stream) the
	// column aggregates.
	Metric string
	Kind   ColumnKind
	// Format is the famCell verb of ColFam columns (e.g. "%.1f").
	Format string
}

// ClusterSpec is the compiled cluster section: everything
// exp.ClusterConfig needs, minus the per-run seed and detector kind the
// execution engine supplies. Zero durations keep the engine defaults
// (exp.ClusterConfig.fillDefaults), exactly like the built-in experiments'
// zero fields.
type ClusterSpec struct {
	N, F      int
	Detectors []string
	Delay     netsim.DelayModel
	// Async-detector tuning.
	Window      time.Duration
	Interval    time.Duration
	Rebroadcast time.Duration
	DisableTags bool
	// Heartbeat/phi/chen tuning.
	HBInterval   time.Duration
	HBTimeout    time.Duration
	PhiThreshold float64
	ChenAlpha    time.Duration
	// CountBytes is false in every parsed scenario: the format has no
	// such field.
	CountBytes  bool
	StartJitter time.Duration
}

// Variant is one fault variant of a scenario: the cluster program runs the
// full detector × variant cross product (like R1's fresh/persisted modes).
type Variant struct {
	// Name tags the variant's table rows and cell keys; empty only for a
	// scenario's single unnamed variant.
	Name string
	// Faults is the compiled, validated schedule (generators expanded).
	Faults faults.Schedule
}

// Measure is the compiled measurement program.
type Measure struct {
	Program Program
	// Warm is the cluster program's fork horizon (replicates share the
	// base-seed prefix up to it); Horizon ends every run.
	Warm, Horizon time.Duration
	// Metrics and Columns drive the cluster program; empty for the
	// fixed-shape topology and consensus programs.
	Metrics []Metric
	Columns []Column
	// Topology program: graph families, machine sizes, crash time and the
	// neighbor heartbeat's interval/timeout.
	Topologies []string
	Ns         []int
	CrashAt    time.Duration
	Interval   time.Duration
	Timeout    time.Duration
	// Consensus program: when proposals are issued.
	Propose time.Duration
}

// Scenario is a fully compiled and validated scenario configuration.
type Scenario struct {
	// Name becomes the table/result ID (like the built-in "R1").
	Name string
	// Title and Note become the rendered table's title and note line.
	Title string
	Note  string
	// Description is free-form documentation carried by the config file.
	Description string
	// Repeat, when positive, is the scenario's default seed-family size; a
	// caller-pinned Options.Repeat (the -repeat flag) wins over it.
	Repeat int

	Cluster ClusterSpec
	// VariantHeader is the header of the variant name column; empty when
	// the scenario has one unnamed variant (no such column, like R2).
	VariantHeader string
	Variants      []Variant
	Measure       Measure
}
