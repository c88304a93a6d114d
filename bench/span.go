package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// layer names one module boundary the traced run attributes time to. The
// string is the prefix of that module's per-layer metrics.
type layer uint8

const (
	layCell      layer = iota // one simulated cell, build to verdict (sim root)
	layTopology               // topology graph construction
	layExpBuild               // cluster construction
	layDes                    // des.RunUntil; self time is the dispatch loop
	layCore                   // detector steps, one layer per kind
	layHeartbeat              //
	layPhi                    //
	layChen                   //
	layNetsim                 // Env.Send/Broadcast/After as called by a detector
	layDelay                  // DelayModel.Delay under netsim
	layTrace                  // the suspicion sink
	layQos                    // qos.JudgeFrom and the metric extraction
	layHB                     // one live heartbeat, due time to Observe (live root)
	layGen                    // due time to the Send call
	layTcpnet                 // Send call to monitor handler entry
	layLiveshard              // handler entry to estimator Observe
	numLayers
)

var layerNames = [numLayers]string{
	"exp.cell", "topology", "exp.build", "des", "core", "heartbeat", "phiaccrual", "chen",
	"netsim", "netsim.delay", "trace", "qos", "hb", "gen", "tcpnet", "liveshard",
}

func (l layer) String() string { return layerNames[l] }

// cover accumulates how much of a parent span its children cover: the
// length of the union of the child intervals, so children that overlap in
// time are not counted twice. Children must be added in start order.
type cover struct {
	total int64 // covered nanoseconds so far
	until int64 // end of the covered region
}

func (c *cover) add(start, end int64) {
	if start < c.until {
		start = c.until
	}
	if end > start {
		c.total += end - start
		c.until = end
	}
}

// span is one recorded interval as written to the trace file.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Run    int    `json:"run"`    // cell (sim) or ladder step (live) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAgg is what is always kept per layer, however many spans ran.
type layerAgg struct {
	count int64
	total int64 // summed durations
	self  int64 // summed self times
}

// maxSpans bounds the full spans kept for the trace file.
const maxSpans = 200_000

// tracer records nested spans on one goroutine. Aggregates are kept for
// every span; the first runLimit spans of each run are also kept whole.
type tracer struct {
	epoch    time.Time
	stack    []frame
	agg      [numLayers]layerAgg
	run      int
	runLimit int32
	runCount int32
	nextID   int32
	spans    []span
}

type frame struct {
	lay   layer
	start int64
	cov   cover
	id    int32 // -1 when the span is outside the kept sample
}

func newTracer(runs int) *tracer {
	if runs < 1 {
		runs = 1
	}
	return &tracer{epoch: time.Now(), runLimit: int32(maxSpans / runs)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startRun begins a new run id; each run keeps its own share of the sample.
func (t *tracer) startRun() {
	t.run++
	t.runCount = 0
}

func (t *tracer) begin(l layer) {
	id := int32(-1)
	if t.runCount < t.runLimit {
		t.runCount++
		id = t.nextID
		t.nextID++
		t.spans = append(t.spans, span{ID: id, Parent: -1, Run: t.run, Name: l.String()})
		if n := len(t.stack); n > 0 {
			t.spans[id].Parent = t.stack[n-1].id
		}
	}
	now := t.now()
	t.stack = append(t.stack, frame{lay: l, start: now, cov: cover{until: now}, id: id})
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	a := &t.agg[f.lay]
	a.count++
	a.total += now - f.start
	a.self += now - f.start - f.cov.total
	if n > 0 {
		t.stack[n-1].cov.add(f.start, now)
	}
	if f.id >= 0 {
		t.spans[f.id].Start, t.spans[f.id].End = f.start, now
	}
}

// in runs fn inside a span of layer l.
func (t *tracer) in(l layer, fn func()) {
	t.begin(l)
	fn()
	t.end()
}

// writeSpans writes the kept spans to <dir>/<workload>.trace.json.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
