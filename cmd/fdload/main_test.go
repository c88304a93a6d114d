package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/qos"
	"asyncfd/internal/trace"
)

// TestRunErrorPaths: bad flag values must surface errors, not bogus runs.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero peers", []string{"-peers", "0"}, "-peers"},
		{"zero senders", []string{"-senders", "0"}, "-senders"},
		{"kill >= peers", []string{"-peers", "10", "-kill", "10"}, "-kill"},
		{"zero interval", []string{"-interval", "0"}, "-interval"},
		{"negative interval", []string{"-interval", "-5ms"}, "-interval"},
		{"zero duration", []string{"-dur", "0"}, "-dur"},
		{"negative duration", []string{"-dur", "-1s"}, "-dur"},
		{"bad shards", []string{"-shards", "1,zero"}, "-shards"},
		{"empty shards", []string{"-shards", ","}, "-shards"},
		{"unknown estimator", []string{"-estimator", "oracle"}, "estimator"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestJudgeRunCountsFalseEpisodes: the only observer in a load run's trace is
// the monitor, whose id lies above the peers'. Its wrongful suspicions of
// live peers — closed or still open at the horizon — are false episodes; the
// suspicion of a killed peer is a detection, and one that began before the
// kill is both.
func TestJudgeRunCountsFalseEpisodes(t *testing.T) {
	const (
		peers   = 6
		kill    = 2
		monitor = ident.ID(peers)
		killAt  = 5 * time.Second
		horizon = 10 * time.Second
	)
	truth := &qos.GroundTruth{}
	truth.Crash(4, killAt)
	truth.Crash(5, killAt)
	log := &trace.Log{}
	log.OnSuspicion(1*time.Second, monitor, 1, true) // closed false episode
	log.OnSuspicion(2*time.Second, monitor, 1, false)
	log.OnSuspicion(3*time.Second, monitor, 4, true) // false, closed before the kill
	log.OnSuspicion(4*time.Second, monitor, 4, false)
	log.OnSuspicion(killAt+400*time.Millisecond, monitor, 4, true) // detection
	log.OnSuspicion(8*time.Second, monitor, 2, true)               // false, open at the horizon

	got := judgeRun(log, truth, monitor, peers, kill, horizon)
	want := verdict{Killed: 2, Detected: 1, Missed: 1, DetectAvgMS: 400, DetectMaxMS: 400, FalseEpisodes: 3}
	if got != want {
		t.Fatalf("judgeRun = %+v, want %+v", got, want)
	}
}

// TestSmokeLoadRun is the CI gate: a small end-to-end run over real
// sockets must sustain the load with a stall-free send path, detect every
// killed peer, and produce a structurally valid report.
func TestSmokeLoadRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load run")
	}
	path := filepath.Join(t.TempDir(), "live.json")
	args := []string{
		"-peers", "300", "-senders", "3", "-shards", "1,2",
		"-interval", "100ms", "-dur", "1s", "-kill", "5",
		"-json", path,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "asyncfd-livebench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Peers != 300 || len(rep.Rows) != 2 {
		t.Fatalf("report shape wrong: peers=%d rows=%d", rep.Peers, len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Processed == 0 || r.HBPerSec <= 0 {
			t.Errorf("K=%d: no load flowed: %+v", r.Shards, r)
		}
		if r.StallsOver100ms != 0 {
			t.Errorf("K=%d: %d send stalls over 100ms (max %.1fms) — the async send path blocked",
				r.Shards, r.StallsOver100ms, r.MaxSendStallMS)
		}
		if r.Missed != 0 {
			t.Errorf("K=%d: %d of %d killed peers never detected", r.Shards, r.Missed, r.Killed)
		}
		if r.Detected != 5 {
			t.Errorf("K=%d: detected = %d, want 5", r.Shards, r.Detected)
		}
		if r.IngestP99us <= 0 {
			t.Errorf("K=%d: empty ingest latency histogram", r.Shards)
		}
	}
}

// TestPhiEstimatorSmoke exercises the φ-accrual path end to end at tiny
// scale.
func TestPhiEstimatorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket load run")
	}
	path := filepath.Join(t.TempDir(), "phi.json")
	args := []string{
		"-peers", "60", "-senders", "2", "-shards", "2",
		"-interval", "100ms", "-dur", "1s", "-kill", "2",
		"-estimator", "phi", "-json", path,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Estimator != "phi" || len(rep.Rows) != 1 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	if rep.Rows[0].Missed != 0 {
		t.Errorf("φ estimator missed %d of %d killed peers", rep.Rows[0].Missed, rep.Rows[0].Killed)
	}
}
