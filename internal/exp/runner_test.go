package exp

import (
	"sync"
	"sync/atomic"
	"time"

	"errors"
	"runtime"
	"strings"
	"testing"
)

func renderAll(t *testing.T, opts Options) string {
	t.Helper()
	results, err := RunResults(Experiments(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		if err := r.Table.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestParallelByteIdenticalToSerial is the engine's core guarantee: a full
// quick-mode table sweep produced by the parallel runner renders exactly the
// bytes the serial runner produces for the same seed.
func TestParallelByteIdenticalToSerial(t *testing.T) {
	serial := renderAll(t, Options{Quick: true, Parallel: 0})
	for _, workers := range []int{2, -1} {
		parallel := renderAll(t, Options{Quick: true, Parallel: workers})
		if parallel != serial {
			t.Fatalf("parallel (workers=%d) sweep differs from serial sweep", workers)
		}
	}
}

// TestScenarioTablesByteIdenticalToSerial pins the engine guarantee on the
// fault-scenario sweeps specifically: crash-recovery restarts and
// partition/heal windows run through the same seed-addressed job
// decomposition, so their tables too must render byte-identically at any
// worker count. (The full-sweep test above also covers them; this
// isolates a failure to the scenario path.)
func TestScenarioTablesByteIdenticalToSerial(t *testing.T) {
	for _, scenario := range []struct {
		name string
		fn   func(Options) (*Table, error)
	}{{"R1", R1CrashRecovery}, {"R2", R2PartitionHeal}} {
		render := func(workers int) string {
			tbl, err := scenario.fn(Options{Quick: true, Seed: 11, Parallel: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", scenario.name, workers, err)
			}
			var b strings.Builder
			if err := tbl.Render(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		serial := render(0)
		for _, workers := range []int{2, -1} {
			if parallel := render(workers); parallel != serial {
				t.Fatalf("%s: parallel (workers=%d) table differs from serial", scenario.name, workers)
			}
		}
	}
}

// TestParallelStableAcrossGOMAXPROCS re-runs the same seeded parallel sweep
// under different GOMAXPROCS values; the output must not change.
func TestParallelStableAcrossGOMAXPROCS(t *testing.T) {
	opts := Options{Quick: true, Seed: 7, Parallel: 4}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	runtime.GOMAXPROCS(1)
	one := renderAll(t, opts)
	runtime.GOMAXPROCS(4)
	four := renderAll(t, opts)
	if one != four {
		t.Fatal("same seed produced different tables across GOMAXPROCS values")
	}
}

func TestRunJobsOrderAndErrors(t *testing.T) {
	jobs := make([]func() (int, error), 100)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) { return i * i, nil }
	}
	for _, workers := range []int{1, 3, 16, 200} {
		out, err := runJobs(Options{Parallel: workers}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}

	boom := errors.New("boom")
	later := errors.New("later")
	jobs[70] = func() (int, error) { return 0, later }
	jobs[10] = func() (int, error) { return 0, boom }
	for _, workers := range []int{1, 8} {
		if _, err := runJobs(Options{Parallel: workers}, jobs); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error %v", workers, err, boom)
		}
	}
}

// TestSharedGateBoundsConcurrency checks that a run-wide gate caps live
// jobs across nested fan-outs (RunResults installs one so experiment-level times
// cell-level parallelism cannot exceed the pool size).
func TestSharedGateBoundsConcurrency(t *testing.T) {
	const bound = 2
	opts := Options{Parallel: 64, gate: make(chan struct{}, bound)}
	var live, peak atomic.Int64
	outer := make([]func() (int, error), 4)
	for i := range outer {
		outer[i] = func() (int, error) {
			inner := make([]func() (int, error), 8)
			for j := range inner {
				inner[j] = func() (int, error) {
					n := live.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					live.Add(-1)
					return 0, nil
				}
			}
			_, err := runJobs(opts, inner)
			return 0, err
		}
	}
	// Outer layer mimics RunResults: plain goroutines holding no gate slots.
	var wg sync.WaitGroup
	for _, job := range outer {
		job := job
		wg.Add(1)
		go func() { defer wg.Done(); _, _ = job() }()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Errorf("peak concurrent jobs = %d, want ≤ %d", p, bound)
	}
}

func TestEngineStatsCount(t *testing.T) {
	var stats EngineStats
	opts := Options{Quick: true, Parallel: 2, Stats: &stats}
	if _, err := E1DetectionVsN(opts); err != nil {
		t.Fatal(err)
	}
	// Quick E1: 2 sizes × 4 detectors × 1 run = 8 simulations.
	if got := stats.Runs.Load(); got != 8 {
		t.Errorf("Runs = %d, want 8", got)
	}
	if stats.Events.Load() == 0 {
		t.Error("Events = 0, want kernel steps recorded")
	}
}

func TestOptionsWorkers(t *testing.T) {
	if (Options{}).workers() != 1 {
		t.Error("zero Parallel must mean serial")
	}
	if (Options{Parallel: 6}).workers() != 6 {
		t.Error("explicit worker count not honored")
	}
	if (Options{Parallel: -1}).workers() != runtime.GOMAXPROCS(0) {
		t.Error("negative Parallel must mean GOMAXPROCS")
	}
}
