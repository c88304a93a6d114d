package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// rules_test.go lists one single-defect document per rejection rule of the
// compiler, for TestParseErrors: a valid document with exactly one thing
// wrong, and the field path the diagnostic must name. The cases pin WHERE a
// defect is reported, not how it is worded, so they hold across rewrites of
// the compiler's inside.

// errCase is one malformed document and a fragment its diagnostic carries.
type errCase struct {
	name string
	doc  string
	want string
}

// miniDoc is the smallest cluster-program document with one metric of every
// stream type. Every rule case is one replacement away from it, from topoDoc
// or from consensusDoc.
const miniDoc = `{
  "schema": "asyncfd-scenario/v1", "name": "x", "title": "t",
  "cluster": {"n": 4, "f": 1, "detectors": ["async"], "delay": {"model": "constant", "d_us": 700}},
  "faults": {"events": [{"kind": "crash", "at_us": 1000000, "id": 3}]},
  "measure": {"program": "cluster", "horizon_us": 10000000,
    "metrics": [{"kind": "detection", "name": "det", "victim": 3},
      {"kind": "storm", "name": "s", "from_us": 0, "to_us": 10000000},
      {"kind": "reconvergence", "name": "settle", "after_us": 5000000}],
    "columns": [{"header": "det", "metric": "det", "kind": "fam_ms"}]}
}`

// Replacement targets inside miniDoc.
const (
	miniDelay   = `{"model": "constant", "d_us": 700}`
	miniFaults  = `{"events": [{"kind": "crash", "at_us": 1000000, "id": 3}]}`
	miniEvents  = `[{"kind": "crash", "at_us": 1000000, "id": 3}]`
	miniDet     = `{"kind": "detection", "name": "det", "victim": 3}`
	miniStorm   = `{"kind": "storm", "name": "s", "from_us": 0, "to_us": 10000000}`
	miniColumn  = `{"header": "det", "metric": "det", "kind": "fam_ms"}`
	miniColumns = `[` + miniColumn + `]`
)

// set is a field and a non-zero JSON value for it.
type set struct{ field, value string }

// swap returns doc with its one occurrence of old replaced; a target that
// is not there (or there twice) is a broken case, not a parse result.
func swap(doc, old, new string) string {
	if strings.Count(doc, old) != 1 {
		panic(fmt.Sprintf("mutation target %q occurs %d times", old, strings.Count(doc, old)))
	}
	return strings.Replace(doc, old, new, 1)
}

// list renders n JSON values produced by item as a JSON array.
func list(n int, item func(i int) string) string {
	items := make([]string, n)
	for i := range items {
		items[i] = item(i)
	}
	return "[" + strings.Join(items, ", ") + "]"
}

func ruleCases() []errCase {
	var cases []errCase
	// add records one case: doc with old replaced by new must fail at path.
	add := func(name, doc, old, new, path string) {
		cases = append(cases, errCase{name, swap(doc, old, new), "scenario: " + path + ":"})
	}
	mini := func(name, old, new, path string) { add(name, miniDoc, old, new, path) }
	long := strings.Repeat("x", 65)
	tooLong := strings.Repeat("x", 1025)
	const day = "86400000001" // one microsecond past the 24h bound

	// Header.
	mini("name too long", `"name": "x"`, `"name": "`+long+`"`, "name")
	mini("title too long", `"title": "t"`, `"title": "`+tooLong+`"`, "title")
	mini("note too long", `"title": "t"`, `"title": "t", "note": "`+tooLong+`"`, "note")
	mini("description too long", `"title": "t"`, `"title": "t", "description": "`+tooLong+`"`, "description")
	mini("repeat too large", `"title": "t"`, `"title": "t", "repeat": 1025`, "repeat")
	mini("header wrong type", `"title": "t"`, `"title": "t", "repeat": "3"`, "json")
	cases = append(cases,
		errCase{"measure absent", `{"schema": "asyncfd-scenario/v1", "name": "x", "title": "t", "cluster": {}}`, "scenario: measure:"},
		errCase{"cluster absent", `{"schema": "asyncfd-scenario/v1", "name": "x", "title": "t", "measure": {"program": "cluster"}}`, "scenario: cluster:"})
	mini("measure unknown field", `"program": "cluster"`, `"program": "cluster", "bogus": 1`, "measure")
	mini("cluster unknown field", `"n": 4`, `"n": 4, "bogus": 1`, "cluster")
	mini("quick section unknown field", `"name": "x"`, `"name": "x", "quick": {"bogus": 1}`, "json")

	// Cluster section.
	mini("n too large", `"n": 4`, `"n": 1025`, "cluster.n")
	mini("f negative", `"f": 1`, `"f": -1`, "cluster.f")
	mini("detectors missing", `"detectors": ["async"], `, ``, "cluster.detectors")
	mini("delay missing", `, "delay": `+miniDelay, ``, "cluster.delay")
	mini("delay not an object", miniDelay, `5`, "cluster.delay")
	for _, f := range []string{"window_us", "interval_us", "rebroadcast_us", "hb_interval_us", "hb_timeout_us", "chen_alpha_us", "start_jitter_us"} {
		mini("cluster negative "+f, `"n": 4`, `"n": 4, "`+f+`": -1`, "cluster."+f)
	}
	mini("cluster duration past 24h", `"n": 4`, `"n": 4, "window_us": `+day, "cluster.window_us")
	mini("phi threshold negative", `"n": 4`, `"n": 4, "phi_threshold": -0.5`, "cluster.phi_threshold")
	mini("phi threshold too large", `"n": 4`, `"n": 4, "phi_threshold": 100.5`, "cluster.phi_threshold")

	// Delay models: each alternative's strict decode, every duration field
	// and every relation between fields.
	delay := func(name, model, path string) { mini("delay "+name, miniDelay, model, path) }
	delay("constant unknown field", `{"model": "constant", "d_us": 700, "x": 1}`, "cluster.delay")
	delay("constant negative", `{"model": "constant", "d_us": -1}`, "cluster.delay.d_us")
	delay("constant past 24h", `{"model": "constant", "d_us": `+day+`}`, "cluster.delay.d_us")
	delay("uniform unknown field", `{"model": "uniform", "min_us": 1, "max_us": 2, "x": 1}`, "cluster.delay")
	delay("uniform negative min", `{"model": "uniform", "min_us": -1, "max_us": 2}`, "cluster.delay.min_us")
	delay("uniform negative max", `{"model": "uniform", "min_us": 0, "max_us": -2}`, "cluster.delay.max_us")
	delay("uniform max below min", `{"model": "uniform", "min_us": 3, "max_us": 2}`, "cluster.delay.max_us")
	delay("exponential unknown field", `{"model": "exponential", "min_us": 1, "mean_us": 2, "cap_us": 3, "x": 1}`, "cluster.delay")
	delay("exponential negative mean", `{"model": "exponential", "min_us": 1, "mean_us": -2, "cap_us": 3}`, "cluster.delay.mean_us")
	delay("exponential zero mean", `{"model": "exponential", "min_us": 1, "mean_us": 0, "cap_us": 3}`, "cluster.delay.mean_us")
	delay("exponential negative cap", `{"model": "exponential", "min_us": 1, "mean_us": 2, "cap_us": -3}`, "cluster.delay.cap_us")
	delay("pareto unknown field", `{"model": "pareto", "scale_us": 1, "alpha": 1.5, "cap_us": 9, "x": 1}`, "cluster.delay")
	delay("pareto negative scale", `{"model": "pareto", "scale_us": -1, "alpha": 1.5, "cap_us": 9}`, "cluster.delay.scale_us")
	delay("pareto zero scale", `{"model": "pareto", "scale_us": 0, "alpha": 1.5, "cap_us": 9}`, "cluster.delay.scale_us")
	delay("pareto negative cap", `{"model": "pareto", "scale_us": 1, "alpha": 1.5, "cap_us": -9}`, "cluster.delay.cap_us")
	delay("pareto zero alpha", `{"model": "pareto", "scale_us": 1, "alpha": 0, "cap_us": 9}`, "cluster.delay.alpha")
	const synth = `{"seed": 1, "count": 8, "tick_us": 1000, "base_us": 100, "scale_us": 50, "alpha": 2.0, "cap_us": 0}`
	const series = `{"schema": "asyncfd-trace/v1", "span_us": 1000, "samples": [{"at_us": 0, "rtt_us": 5}]}`
	delay("trace unknown field", `{"model": "trace", "synthetic": `+synth+`, "x": 1}`, "cluster.delay")
	delay("trace neither source", `{"model": "trace"}`, "cluster.delay")
	delay("trace both sources", `{"model": "trace", "synthetic": `+synth+`, "series": `+series+`}`, "cluster.delay")
	delay("trace bad series", `{"model": "trace", "series": `+swap(series, `"span_us": 1000`, `"span_us": 0`)+`}`, "cluster.delay.series")
	delay("trace series unknown field", `{"model": "trace", "series": `+swap(series, `"span_us"`, `"x": 1, "span_us"`)+`}`, "cluster.delay.series")
	delay("synthetic unknown field", `{"model": "trace", "synthetic": `+swap(synth, `"seed"`, `"x": 1, "seed"`)+`}`, "cluster.delay.synthetic")
	delay("synthetic zero count", `{"model": "trace", "synthetic": `+swap(synth, `"count": 8`, `"count": 0`)+`}`, "cluster.delay.synthetic")
	for _, f := range []string{`"tick_us": 1000`, `"base_us": 100`, `"scale_us": 50`, `"cap_us": 0`} {
		name := f[1:strings.LastIndex(f, `"`)]
		delay("synthetic negative "+name, `{"model": "trace", "synthetic": `+swap(synth, f, `"`+name+`": -1`)+`}`, "cluster.delay.synthetic."+name)
	}

	// Faults section: its shape, then events, islands and generators.
	faults := func(name, section, path string) { mini("faults "+name, miniFaults, section, path) }
	events := func(name, evs, path string) { mini("event "+name, miniEvents, evs, path) }
	faults("unknown field", `{"bogus": 1}`, "faults")
	faults("variants and bare events", `{"variant_header": "v", "variants": [{"name": "a"}], "events": `+miniEvents+`}`, "faults")
	faults("header without variants", `{"variant_header": "v", "events": `+miniEvents+`}`, "faults.variant_header")
	faults("too many variants", `{"variant_header": "v", "variants": `+
		list(33, func(i int) string { return fmt.Sprintf(`{"name": "v%d"}`, i) })+`}`, "faults.variants")
	faults("variant name missing", `{"variants": [{"events": `+miniEvents+`}]}`, "faults.variants[0].name")
	faults("variant name too long", `{"variants": [{"name": "`+long+`"}]}`, "faults.variants[0].name")
	faults("variant event defect", `{"variants": [{"name": "a", "events": [{"kind": "heal", "at_us": -1}]}]}`, "faults.variants[0].events[0].at_us")
	faults("too many events", `{"events": `+
		list(16385, func(i int) string { return `{"kind": "partition", "at_us": 1, "islands": [[0]]}` })+`}`, "faults.events")
	faults("too many generated events", `{"generators": `+list(9, func(i int) string {
		return fmt.Sprintf(`{"kind": "flap", "islands": [[0]], "at_us": %d, "down_us": 1, "period_us": 2, "count": 1024}`, i*2048)
	})+`}`, "faults.generators[8]")
	events("not an object", `[5]`, "faults.events[0]")
	events("kind missing", `[{"at_us": 1000000, "id": 3}]`, "faults.events[0].kind")
	events("crash unknown field", `[{"kind": "crash", "at_us": 1000000, "id": 3, "x": 1}]`, "faults.events[0]")
	events("crash negative time", `[{"kind": "crash", "at_us": -1, "id": 3}]`, "faults.events[0].at_us")
	events("crash time past 24h", `[{"kind": "crash", "at_us": `+day+`, "id": 3}]`, "faults.events[0].at_us")
	events("crash negative id", `[{"kind": "crash", "at_us": 1000000, "id": -1}]`, "faults.events[0].id")
	events("crash at horizon", `[{"kind": "crash", "at_us": 10000000, "id": 3}]`, "faults")
	const crash = `{"kind": "crash", "at_us": 1000000, "id": 3}, `
	events("recover unknown field", `[`+crash+`{"kind": "recover", "at_us": 2000000, "id": 3, "x": 1}]`, "faults.events[1]")
	events("recover negative time", `[`+crash+`{"kind": "recover", "at_us": -1, "id": 3}]`, "faults.events[1].at_us")
	events("recover id out of range", `[`+crash+`{"kind": "recover", "at_us": 2000000, "id": 4}]`, "faults.events[1].id")
	events("partition unknown field", `[{"kind": "partition", "at_us": 1, "islands": [[0]], "x": 1}]`, "faults.events[0]")
	events("partition negative time", `[{"kind": "partition", "at_us": -1, "islands": [[0]]}]`, "faults.events[0].at_us")
	events("partition without islands", `[{"kind": "partition", "at_us": 1}]`, "faults.events[0].islands")
	events("partition island id out of range", `[{"kind": "partition", "at_us": 1, "islands": [[0, 4]]}]`, "faults.events[0].islands[0][1]")
	events("partition island id twice", `[{"kind": "partition", "at_us": 1, "islands": [[0], [1, 0]]}]`, "faults.events[0].islands[1][1]")
	events("partition cuts no one", `[{"kind": "partition", "at_us": 1, "islands": [[0, 1, 2, 3]]}]`, "faults.events[0].islands")
	cases = append(cases, errCase{"event partition too many islands",
		swap(swap(miniDoc, `"n": 4`, `"n": 70`), miniEvents, `[{"kind": "partition", "at_us": 1, "islands": `+
			list(65, func(i int) string { return fmt.Sprintf("[%d]", i) })+`}]`), "scenario: faults.events[0].islands:"})
	const part = `{"kind": "partition", "at_us": 1, "islands": [[0]]}, `
	events("heal unknown field", `[`+part+`{"kind": "heal", "at_us": 2, "x": 1}]`, "faults.events[1]")
	events("heal negative time", `[`+part+`{"kind": "heal", "at_us": -2}]`, "faults.events[1].at_us")
	gen := func(name, g, path string) { mini("generator "+name, miniFaults, `{"generators": [`+g+`]}`, path) }
	const gpath = "faults.generators[0]"
	gen("not an object", `"flap"`, gpath)
	gen("kind missing", `{"count": 1}`, gpath+".kind")
	gen("unknown kind", `{"kind": "storm"}`, gpath+".kind")
	const flap = `{"kind": "flap", "islands": [[0]], "at_us": 1000, "down_us": 10, "period_us": 20, "count": 2}`
	gen("flap unknown field", swap(flap, `"count"`, `"x": 1, "count"`), gpath)
	gen("flap negative start", swap(flap, `"at_us": 1000`, `"at_us": -1`), gpath+".at_us")
	gen("flap negative down", swap(flap, `"down_us": 10`, `"down_us": -10`), gpath+".down_us")
	gen("flap zero down", swap(flap, `"down_us": 10`, `"down_us": 0`), gpath+".down_us")
	gen("flap negative period", swap(flap, `"period_us": 20`, `"period_us": -20`), gpath+".period_us")
	gen("flap period past 24h", swap(flap, `"period_us": 20`, `"period_us": `+day), gpath+".period_us")
	gen("flap count too large", swap(flap, `"count": 2`, `"count": 1025`), gpath+".count")
	gen("flap without islands", swap(flap, `"islands": [[0]], `, ``), gpath+".islands")
	gen("flap island overlap", swap(flap, `[[0]]`, `[[0], [0]]`), gpath+".islands[1][0]")
	gen("flap cuts no one", swap(flap, `[[0]]`, `[[3, 2, 1, 0]]`), gpath+".islands")
	const burst = `{"kind": "crash-burst", "ids": [1, 2], "at_us": 2000000, "spacing_us": 1000}`
	gen("burst unknown field", swap(burst, `"ids"`, `"x": 1, "ids"`), gpath)
	gen("burst negative start", swap(burst, `"at_us": 2000000`, `"at_us": -1`), gpath+".at_us")
	gen("burst negative spacing", swap(burst, `"spacing_us": 1000`, `"spacing_us": -1`), gpath+".spacing_us")
	gen("burst without ids", swap(burst, `"ids": [1, 2], `, ``), gpath+".ids")
	gen("burst id out of range", swap(burst, `[1, 2]`, `[1, 4]`), gpath+".ids[1]")
	gen("burst id twice", swap(burst, `[1, 2]`, `[1, 1]`), gpath+".ids[1]")
	const unif = `{"kind": "uniform-crashes", "seed": 1, "count": 1, "candidates": [1, 2], "start_us": 2000000, "end_us": 3000000}`
	gen("uniform unknown field", swap(unif, `"seed"`, `"x": 1, "seed"`), gpath)
	gen("uniform negative start", swap(unif, `"start_us": 2000000`, `"start_us": -1`), gpath+".start_us")
	gen("uniform negative end", swap(unif, `"end_us": 3000000`, `"end_us": -1`), gpath+".end_us")
	gen("uniform end before start", swap(unif, `"end_us": 3000000`, `"end_us": 2000000`), gpath+".end_us")
	gen("uniform without candidates", swap(unif, `"candidates": [1, 2], `, ``), gpath+".candidates")
	gen("uniform candidate out of range", swap(unif, `[1, 2]`, `[4, 2]`), gpath+".candidates[0]")
	gen("uniform candidate twice", swap(unif, `[1, 2]`, `[2, 2]`), gpath+".candidates[1]")
	gen("uniform zero count", swap(unif, `"count": 1`, `"count": 0`), gpath+".count")
	gen("uniform count above candidates", swap(unif, `"count": 1`, `"count": 3`), gpath+".count")

	// The cluster program's measure section.
	for _, f := range []set{{"topologies", `["ring"]`}, {"ns", `[8]`}, {"crash_at_us", `1`}, {"interval_us", `1`}, {"timeout_us", `1`}, {"propose_us", `1`}} {
		mini("cluster program rejects "+f.field, `"program": "cluster"`, `"program": "cluster", "`+f.field+`": `+f.value, "measure."+f.field)
	}
	mini("warm negative", `"program": "cluster"`, `"program": "cluster", "warm_us": -1`, "measure.warm_us")
	mini("horizon negative", `"horizon_us": 10000000`, `"horizon_us": -1`, "measure.horizon_us")
	mini("horizon past 24h", `"horizon_us": 10000000`, `"horizon_us": `+day, "measure.horizon_us")
	mini("horizon missing", `"horizon_us": 10000000,`, ``, "measure.horizon_us")
	metric := func(name, old, new, path string) { mini("metric "+name, old, new, "measure.metrics"+path) }
	mini("too many metrics", miniDet, miniDet+", "+strings.Trim(list(62, func(i int) string {
		return fmt.Sprintf(`{"kind": "storm", "name": "s%d", "from_us": 0, "to_us": 1}`, i)
	}), "[]"), "measure.metrics")
	metric("not an object", miniDet, `"detection"`, "[0]")
	metric("kind missing", `{"kind": "detection", `, `{`, "[0].kind")
	metric("name missing", `"name": "det", `, ``, "[0].name")
	metric("name too long", `"name": "settle"`, `"name": "`+long+`"`, "[2].name")
	metric("detection unknown field", `"victim": 3`, `"victim": 3, "x": 1`, "[0]")
	metric("victim negative", `"victim": 3`, `"victim": -3`, "[0].victim")
	metric("detection takes no episode", `"victim": 3`, `"victim": 3, "episode": 1`, "[0].episode")
	metric("episode negative", miniDet, swap(miniDet, `"detection"`, `"redetection", "episode": -1`), "[0].episode")
	metric("episode too large", miniDet, swap(miniDet, `"detection"`, `"trust-restoration", "episode": 65`), "[0].episode")
	metric("observer out of range", `"victim": 3`, `"victim": 3, "observers": [0, 4]`, "[0].observers[1]")
	metric("observer twice", `"victim": 3`, `"victim": 3, "observers": [0, 1, 0]`, "[0].observers[2]")
	metric("victim observes itself", `"victim": 3`, `"victim": 3, "observers": [3]`, "[0].observers[0]")
	metric("storm name missing", `"name": "s", `, ``, "[1].name")
	metric("storm unknown field", `"from_us": 0`, `"x": 1, "from_us": 0`, "[1]")
	metric("storm negative from", `"from_us": 0`, `"from_us": -1`, "[1].from_us")
	metric("storm negative to", `"to_us": 10000000`, `"to_us": -1`, "[1].to_us")
	metric("storm past horizon", `"to_us": 10000000`, `"to_us": 10000001`, "[1].to_us")
	metric("reconvergence unknown field", `"after_us": 5000000`, `"after_us": 5000000, "x": 1`, "[2]")
	metric("reconvergence negative start", `"after_us": 5000000`, `"after_us": -1`, "[2].after_us")
	metric("reconvergence at horizon", `"after_us": 5000000`, `"after_us": 10000000`, "[2].after_us")
	metric("clean name taken", `"after_us": 5000000`, `"after_us": 5000000, "clean_name": "det"`, "[2].clean_name")
	metric("clean name too long", `"after_us": 5000000`, `"after_us": 5000000, "clean_name": "`+long+`"`, "[2].clean_name")
	metric("default clean name taken", `"name": "s"`, `"name": "clean"`, "[2].clean_name")
	column := func(name, cols, path string) { mini("column "+name, miniColumns, cols, "measure.columns"+path) }
	mini("columns missing", ",\n"+`    "columns": `+miniColumns, ``, "measure.columns")
	column("too many", list(65, func(int) string { return miniColumn }), "")
	column("header missing", `[{"metric": "det", "kind": "fam_ms"}]`, "[0].header")
	column("header too long", `[{"header": "`+long+`", "metric": "det", "kind": "fam_ms"}]`, "[0].header")
	column("metric missing", `[{"header": "h", "kind": "fam_ms"}]`, "[0].metric")
	column("kind missing", `[{"header": "h", "metric": "det"}]`, "[0].kind")
	column("unknown kind", `[{"header": "h", "metric": "det", "kind": "median"}]`, "[0].kind")
	for _, c := range []struct{ kind, metric string }{
		{"fam_ms", "s"}, {"fam_ms", "clean"}, {"max_ms", "s"}, {"max_ms", "clean"},
		{"missing", "settle"}, {"missing", "s"}, {"missing", "clean"},
		{"fam", "det"}, {"fam", "settle"}, {"fam", "clean"},
		{"ratio", "det"}, {"ratio", "settle"}, {"ratio", "s"},
	} {
		column(c.kind+" over "+c.metric, `[`+miniColumn+`, {"header": "h", "metric": "`+c.metric+`", "kind": "`+c.kind+`"}]`, "[1].kind")
	}

	// The topology program: what it refuses of the other programs' fields,
	// then its own.
	topo := func(name, old, new, path string) { add("topology "+name, topoDoc, old, new, path) }
	for _, f := range []set{{"f", `1`}, {"window_us", `1`}, {"interval_us", `1`}, {"rebroadcast_us", `1`}, {"disable_tags", `true`},
		{"hb_interval_us", `1`}, {"hb_timeout_us", `1`}, {"phi_threshold", `1`}, {"chen_alpha_us", `1`}, {"start_jitter_us", `1`}} {
		topo("rejects cluster "+f.field, `"detectors": ["heartbeat"],`, `"detectors": ["heartbeat"], "`+f.field+`": `+f.value+`,`, "cluster."+f.field)
	}
	for _, f := range []set{{"warm_us", `1`}, {"propose_us", `1`}, {"metrics", `[` + miniStorm + `]`}, {"columns", miniColumns}} {
		topo("rejects measure "+f.field, `"program": "topology",`, `"program": "topology", "`+f.field+`": `+f.value+`,`, "measure."+f.field)
	}
	topo("detectors missing", `"detectors": ["heartbeat"],`, ``, "cluster.detectors")
	topo("two detectors", `["heartbeat"]`, `["heartbeat", "async"]`, "cluster.detectors")
	topo("delay defect", `"d_us": 1000`, `"d_us": -1000`, "cluster.delay.d_us")
	topo("trace delay", `{"model": "constant", "d_us": 1000}`, `{"model": "trace", "synthetic": `+synth+`}`, "cluster.delay.model")
	topo("horizon negative", `"horizon_us": 30000000`, `"horizon_us": -1`, "measure.horizon_us")
	topo("horizon missing", `"horizon_us": 30000000,`, ``, "measure.horizon_us")
	topo("topologies missing", `"topologies": ["ring", "grid"],`, ``, "measure.topologies")
	topo("topology twice", `["ring", "grid"]`, `["ring", "grid", "ring"]`, "measure.topologies[2]")
	topo("ns missing", `"ns": [48, 96],`, ``, "measure.ns")
	topo("too many ns", `[48, 96]`, list(17, func(i int) string { return "48" }), "measure.ns")
	topo("ns too large", `[48, 96]`, `[8193]`, "measure.ns[0]")
	topo("crash time negative", `"crash_at_us": 10400000`, `"crash_at_us": -1`, "measure.crash_at_us")
	topo("crash time missing", ",\n"+`    "crash_at_us": 10400000`, ``, "measure.crash_at_us")
	topo("interval negative", `"program": "topology",`, `"program": "topology", "interval_us": -1,`, "measure.interval_us")
	topo("timeout negative", `"program": "topology",`, `"program": "topology", "timeout_us": -1,`, "measure.timeout_us")
	topo("timeout below interval", `"program": "topology",`, `"program": "topology", "interval_us": 3000000,`, "measure.timeout_us")
	topo("timeout equals default interval", `"program": "topology",`, `"program": "topology", "timeout_us": 1000000,`, "measure.timeout_us")
	topo("fault schedule", `"measure":`, `"faults": `+miniFaults+`, "measure":`, "faults")
	topo("variant header", `"measure":`, `"faults": {"variant_header": "v"}, "measure":`, "faults")
	topo("faults unknown field", `"measure":`, `"faults": {"bogus": 1}, "measure":`, "faults")

	// The consensus program.
	cons := func(name, old, new, path string) { add("consensus "+name, consensusDoc, old, new, path) }
	for _, f := range []set{{"warm_us", `1`}, {"metrics", `[` + miniStorm + `]`}, {"columns", miniColumns}, {"topologies", `["ring"]`},
		{"ns", `[8]`}, {"crash_at_us", `1`}, {"interval_us", `1`}, {"timeout_us", `1`}} {
		cons("rejects measure "+f.field, `"program": "consensus",`, `"program": "consensus", "`+f.field+`": `+f.value+`,`, "measure."+f.field)
	}
	cons("cluster defect", `"n": 5`, `"n": 1`, "cluster.n")
	cons("f zero", `"f": 2`, `"f": 0`, "cluster.f")
	cons("horizon negative", `"horizon_us": 120000000`, `"horizon_us": -1`, "measure.horizon_us")
	cons("propose negative", `"propose_us": 5000000`, `"propose_us": -1`, "measure.propose_us")
	cons("horizon at propose", `"horizon_us": 120000000`, `"horizon_us": 5000000`, "measure.horizon_us")
	cons("variant column", `"events": [{"kind": "crash", "at_us": 5001000, "id": 0}]`, `"variant_header": "v", "variants": [{"name": "a"}]`, "faults.variants")
	cons("two variants", `"events": [{"kind": "crash", "at_us": 5001000, "id": 0}]`, `"variant_header": "v", "variants": [{"name": "a"}, {"name": "b"}]`, "faults.variants")
	cons("event defect", `"id": 0`, `"id": 5`, "faults.events[0].id")
	cons("event past horizon", `"at_us": 5001000`, `"at_us": 120000000`, "faults")
	return cases
}

// TestRuleCasesAreSingleDefect keeps the rule table honest: the three
// documents every case mutates compile as they stand.
func TestRuleCasesAreSingleDefect(t *testing.T) {
	for name, doc := range map[string]string{"miniDoc": miniDoc, "topoDoc": topoDoc, "consensusDoc": consensusDoc} {
		if _, err := Parse([]byte(doc), false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
