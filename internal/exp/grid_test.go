package exp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"asyncfd/internal/qos"
	"asyncfd/internal/stats"
)

const (
	gridWarm    = 2 * time.Second
	gridHorizon = 4 * time.Second
	gridRepeat  = 3
)

func gridConfig(seed int64) ClusterConfig {
	return ClusterConfig{Kind: KindAsync, N: 4, F: 1, Seed: seed, Delay: defaultDelay()}
}

// fingerprint reads a finished cluster as the next value of its RNG, which
// depends on the seed in force and on every draw the kernel made under it,
// plus the (unsampled) step count.
func fingerprint(c *Cluster) obs {
	return obs{}.add("next_draw", float64(c.Sim.Rand().Int63())).hide("steps", float64(c.Sim.Steps()))
}

// gridCells is two family cells and two seeded cells, interleaved; each
// seeded cell also reports the seed it was handed.
func gridCells(opts Options) []cell {
	fam := func(key string) cell {
		return cell{key: key, fam: &family{
			warm: gridWarm, horizon: gridHorizon,
			build:   faulted(gridConfig(opts.seed()), nil),
			measure: func(c *Cluster, _ *qos.GroundTruth) obs { return fingerprint(c) },
		}}
	}
	seeded := func(key string) cell {
		return cell{key: key, job: func(seed int64) (obs, error) {
			c, err := NewCluster(gridConfig(seed))
			if err != nil {
				return nil, err
			}
			c.RunUntil(gridHorizon)
			opts.record(c.Sim)
			return fingerprint(c).add("seed", float64(seed)), nil
		}}
	}
	return []cell{fam("fam/a"), seeded("job/a"), fam("fam/b"), seeded("job/b")}
}

// TestGridReplicateKinds pins what a replicate is, against clusters driven
// by hand: a family cell's replicate 0 is the base-seed run continued past
// the fork horizon and replicate r ≥ 1 is that prefix reseeded at the
// horizon with base + r·stride; a seeded cell's replicate r is a cluster
// built at base + r·stride. Results come back in cell order, R per cell,
// whatever the pool width and replication mode; hidden observations reach
// the series but never the collector.
func TestGridReplicateKinds(t *testing.T) {
	const base = 7
	wantFam, wantJob := series{}, series{}
	for r := 0; r < gridRepeat; r++ {
		seed := int64(base + r*replicateStride)
		c, err := NewCluster(gridConfig(base))
		if err != nil {
			t.Fatal(err)
		}
		c.RunUntil(gridWarm)
		if r > 0 {
			c.Sim.Reseed(seed)
		}
		c.RunUntil(gridHorizon)
		for _, ob := range fingerprint(c) {
			wantFam[ob.name] = append(wantFam[ob.name], ob.value)
		}
		if c, err = NewCluster(gridConfig(seed)); err != nil {
			t.Fatal(err)
		}
		c.RunUntil(gridHorizon)
		for _, ob := range fingerprint(c).add("seed", float64(seed)) {
			wantJob[ob.name] = append(wantJob[ob.name], ob.value)
		}
	}
	if wantFam["next_draw"][0] != wantJob["next_draw"][0] || wantFam["next_draw"][1] == wantJob["next_draw"][1] {
		t.Fatal("reseeding at the horizon and building at the seed ran the same replicates; the test cannot tell the kinds apart")
	}

	var refSamples []stats.Sample
	for _, parallel := range []int{1, 8} {
		for _, fork := range []int{1, -1} {
			name := fmt.Sprintf("parallel=%d fork=%d", parallel, fork)
			col, eng := &stats.Collector{}, &EngineStats{}
			opts := Options{Seed: base, Repeat: gridRepeat, Parallel: parallel, serial: fork < 0, Samples: col, Stats: eng}
			got, err := runGrid(opts, gridCells(opts))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := []series{wantFam, wantJob, wantFam, wantJob}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: series\n got %v\nwant %v", name, got, want)
			}
			if runs := eng.Runs.Load(); runs != 4*gridRepeat {
				t.Errorf("%s: %d kernels recorded, want %d", name, runs, 4*gridRepeat)
			}
			samples := col.Samples()
			if refSamples == nil {
				refSamples = samples
			} else if !reflect.DeepEqual(samples, refSamples) {
				t.Errorf("%s: samples differ from parallel=1 fork=1\n got %v\nwant %v", name, samples, refSamples)
			}
			rows := col.Rows()
			if len(rows) != 6 { // next_draw ×4 cells, seed ×2 seeded cells
				t.Errorf("%s: %d v2 rows, want 6: %+v", name, len(rows), rows)
			}
			for _, row := range rows {
				if row.Metric == "steps" {
					t.Errorf("%s: hidden observation reached the collector: %+v", name, row)
				}
				if row.N != gridRepeat {
					t.Errorf("%s: row %s/%s has %d samples, want %d", name, row.Cell, row.Metric, row.N, gridRepeat)
				}
			}
		}
	}
	if want := (stats.Sample{Cell: "fam/a", Metric: "next_draw", Rep: 0, Value: wantFam["next_draw"][0]}); refSamples[0] != want {
		t.Errorf("first sample %+v, want %+v", refSamples[0], want)
	}
}

// TestGridOncePinsOneReplicate: a once cell runs the base seed alone
// whatever Repeat says.
func TestGridOncePinsOneReplicate(t *testing.T) {
	cells := []cell{{key: "once", once: true, job: func(seed int64) (obs, error) {
		return obs{}.add("seed", float64(seed)), nil
	}}}
	got, err := runGrid(Options{Seed: 5, Repeat: 4}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if want := []series{{"seed": {5}}}; !reflect.DeepEqual(got, want) {
		t.Errorf("series %v, want %v", got, want)
	}
}

// TestGridLowestCellErrorWins: when several cells fail, the error reported
// is the lowest-index cell's (its lowest failing replicate), named by the
// cell's key, at any pool width and in both replication modes.
func TestGridLowestCellErrorWins(t *testing.T) {
	boom := errors.New("boom")
	failing := func(key string, fromRep int) cell {
		return cell{key: key, job: func(seed int64) (obs, error) {
			if seed >= 1+int64(fromRep)*replicateStride {
				return nil, fmt.Errorf("seed %d: %w", seed, boom)
			}
			return obs{}.add("ok", 1), nil
		}}
	}
	badBuild := cell{key: "fam/bad", fam: &family{
		warm: gridWarm, horizon: gridHorizon,
		build:   faulted(ClusterConfig{Kind: KindAsync, N: 4, F: 1, Seed: 1}, nil), // no delay model
		measure: func(c *Cluster, _ *qos.GroundTruth) obs { return fingerprint(c) },
	}}
	cells := []cell{failing("job/fine", gridRepeat), failing("job/late", 1), badBuild, failing("job/all", 0)}
	for _, parallel := range []int{1, 8} {
		for _, fork := range []int{1, -1} {
			_, err := runGrid(Options{Seed: 1, Repeat: gridRepeat, Parallel: parallel, serial: fork < 0}, cells)
			want := fmt.Sprintf("cell job/late: seed %d: boom", 1+replicateStride)
			if err == nil || err.Error() != want || !errors.Is(err, boom) {
				t.Errorf("parallel=%d fork=%d: error %v, want %q", parallel, fork, err, want)
			}
		}
	}
	if _, err := runGrid(Options{Seed: 1, Repeat: gridRepeat}, cells[2:]); err == nil || errors.Is(err, boom) {
		t.Errorf("a family whose build fails reported %v, want its build error", err)
	}
}
