package exp

import (
	"strings"
	"testing"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
	"asyncfd/internal/topology"
)

var quick = Options{Quick: true}

func TestKindString(t *testing.T) {
	if len(AllKinds()) != 4 {
		t.Error("AllKinds must list the paper's four implementations")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Note: "a note", Columns: []string{"a", "long-column"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== T: demo ==", "a note", "long-column", "333333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Kind: KindAsync, N: 4, F: 1}); err == nil {
		t.Error("missing Delay accepted")
	}
	if _, err := NewCluster(ClusterConfig{Kind: KindAsync, N: 1, F: 0, Delay: netsim.Constant{}}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := NewCluster(ClusterConfig{Kind: Kind("no-such-kind"), N: 4, F: 1, Delay: netsim.Constant{}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// everyKindConfig is a five-process cluster of kind: the paper's four on the
// full mesh, the gossip comparator on a ring, where p4's counter reaches p1
// and p2 only through a relay.
func everyKindConfig(kind Kind) ClusterConfig {
	cfg := ClusterConfig{
		Kind: kind, N: 5, F: 1, Seed: 7,
		Delay: netsim.Constant{D: time.Millisecond},
	}
	if kind == KindGossip {
		cfg.Graph = topology.Circulant(5, 1)
	}
	return cfg
}

var everyKind = append(AllKinds(), KindGossip)

func TestClusterEachKindDetectsCrash(t *testing.T) {
	for _, kind := range everyKind {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c, err := NewCluster(everyKindConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			truth := c.Apply(faults.Schedule{}.CrashAt(4, 5*time.Second))
			c.RunUntil(30 * time.Second)
			det := qos.NewDetectionTimes(truth, 4, ident.SetOf(0, 1, 2, 3))
			qos.Fold(c.Log, det)
			if st := det.Result(); st.Count != 4 || st.Missing != 0 {
				t.Fatalf("detection stats = %+v", st)
			}
			if !c.Detector(0).IsSuspected(4) {
				t.Error("detector output does not reflect the crash")
			}
		})
	}
}

func TestClusterEachKindSurvivesCrashRecovery(t *testing.T) {
	for _, kind := range everyKind {
		kind := kind
		for _, fresh := range []bool{true, false} {
			fresh := fresh
			name := string(kind) + "/persisted"
			if fresh {
				name = string(kind) + "/fresh"
			}
			t.Run(name, func(t *testing.T) {
				c, err := NewCluster(everyKindConfig(kind))
				if err != nil {
					t.Fatal(err)
				}
				victim := ident.ID(4)
				observers := ident.SetOf(0, 1, 2, 3)
				truth := c.Apply(faults.Schedule{}.
					CrashAt(victim, 5*time.Second).
					RecoverAt(victim, 15*time.Second, fresh).
					CrashAt(victim, 30*time.Second))
				c.RunUntil(50 * time.Second)

				redet1 := qos.NewRedetectionTimes(truth, victim, observers, 0)
				restore := qos.NewTrustRestorationTimes(truth, victim, observers, 0)
				redet2 := qos.NewRedetectionTimes(truth, victim, observers, 1)
				qos.Fold(c.Log, redet1, restore, redet2)
				det1 := redet1.Result()
				if det1.Count != 4 || det1.Missing != 0 {
					t.Fatalf("crash #1 detection = %+v", det1)
				}
				rst := restore.Result()
				if rst.Missing != 0 || rst.Count == 0 {
					t.Fatalf("trust restoration = %+v; observers never re-trusted the restarted process", rst)
				}
				det2 := redet2.Result()
				if det2.Count != 4 || det2.Missing != 0 {
					t.Fatalf("crash #2 re-detection = %+v", det2)
				}
				if !c.Detector(0).IsSuspected(victim) {
					t.Error("detector output does not reflect the second crash")
				}
			})
		}
	}
}

func TestClusterPartitionHealAllKindsReconverge(t *testing.T) {
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				Kind: kind, N: 6, F: 2, Seed: 3,
				Delay:       netsim.Constant{D: time.Millisecond},
				Rebroadcast: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			truth := c.Apply(faults.Schedule{}.
				PartitionAt(10*time.Second, []ident.ID{5}).
				HealAt(20 * time.Second))
			c.RunUntil(45 * time.Second)
			mistakes := qos.NewMistakeStorm(truth, c.Members, 10*time.Second, 20*time.Second)
			reconvergence := qos.NewReconvergence(truth, c.Members, 20*time.Second)
			qos.Fold(c.Log, mistakes, reconvergence)
			if mistakes.Result() == 0 {
				t.Error("partition produced no false suspicions of the cut-off minority")
			}
			settle, clean := reconvergence.Result()
			if !clean {
				t.Errorf("cluster did not re-converge after the heal (settle=%v)", settle)
			}
			c.Members.ForEach(func(id ident.ID) bool {
				if n := c.Detector(id).Suspects().Len(); n != 0 {
					t.Errorf("%v still suspects %d processes at the end", id, n)
				}
				return true
			})
		})
	}
}

func TestR1(t *testing.T) {
	tbl, err := R1CrashRecovery(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 { // 4 detectors × 2 state modes
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[5] != "0" {
			t.Errorf("row %v: some observer never re-detected the second crash", row)
		}
	}
}

func TestR2(t *testing.T) {
	tbl, err := R2PartitionHeal(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 detectors", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if !strings.HasSuffix(row[4], "/1") || strings.HasPrefix(row[4], "0/") {
			t.Errorf("row %v: runs did not re-converge cleanly", row)
		}
	}
}

func TestE1(t *testing.T) {
	tbl, err := E1DetectionVsN(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (quick)", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Errorf("row %v has %d cells, want %d", row, len(row), len(tbl.Columns))
		}
	}
}

func TestE2(t *testing.T) {
	tbl, err := E2DetectionVsF(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE3SeriesShape(t *testing.T) {
	tbl, err := E3Disturbance(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 31 {
		t.Fatalf("rows = %d, want 31 samples", len(tbl.Rows))
	}
	// The async series must rise during the disturbance and return to zero
	// by the end (self-correction).
	peak := 0
	for _, row := range tbl.Rows {
		v := atoi(t, row[1])
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Error("async series never rose during the disturbance")
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if atoi(t, last[1]) != 0 {
		t.Errorf("async false suspicions did not return to zero: %v", last)
	}
	if atoi(t, last[2]) != 0 {
		t.Errorf("heartbeat false suspicions did not return to zero: %v", last)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

func TestE4(t *testing.T) {
	tbl, err := E4QoS(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 16 { // 4 models × 4 detectors
		t.Fatalf("rows = %d, want 16", len(tbl.Rows))
	}
}

func TestE5(t *testing.T) {
	tbl, err := E5MessageCost(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 { // 2 sizes × 4 detectors
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
}

func TestE6(t *testing.T) {
	tbl, err := E6MPSensitivity(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 bias levels", len(tbl.Rows))
	}
	// Under strong MP the accuracy must hold in the quick run.
	if !strings.HasPrefix(tbl.Rows[0][1], "1/1") {
		t.Errorf("strong-MP row = %v, want accuracy to hold", tbl.Rows[0])
	}
}

func TestE7(t *testing.T) {
	tbl, err := E7Consensus(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 detectors", len(tbl.Rows))
	}
}

func TestE8(t *testing.T) {
	tbl, err := E8Propagation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (quick)", len(tbl.Rows))
	}
}

func TestA1TagsMatter(t *testing.T) {
	tbl, err := A1TagsAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	on := atoi(t, tbl.Rows[0][1])
	off := atoi(t, tbl.Rows[1][1])
	if on >= off && off != 0 {
		t.Errorf("tail transitions: tags-on=%d tags-off=%d; ablation should flap more", on, off)
	}
	if on != 0 {
		t.Errorf("tags-on run still flapping in tail: %d transitions", on)
	}
}

func TestA2(t *testing.T) {
	tbl, err := A2WindowAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestDeterministicTables(t *testing.T) {
	a, err := E2DetectionVsF(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E2DetectionVsF(quick)
	if err != nil {
		t.Fatal(err)
	}
	var sa, sb strings.Builder
	if err := a.Render(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Errorf("same options produced different tables:\n%s\nvs\n%s", sa.String(), sb.String())
	}
}

func TestX1(t *testing.T) {
	tbl, err := X1DensityExt(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 densities (quick)", len(tbl.Rows))
	}
}

func TestX2MobilityConverges(t *testing.T) {
	tbl, err := X2MobilityExt(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty series")
	}
	// Both detectors must spike during the move and converge to zero.
	asyncPeak, gossipPeak := 0, 0
	for _, row := range tbl.Rows {
		if v := atoi(t, row[1]); v > asyncPeak {
			asyncPeak = v
		}
		if v := atoi(t, row[2]); v > gossipPeak {
			gossipPeak = v
		}
	}
	if asyncPeak == 0 || gossipPeak == 0 {
		t.Errorf("peaks async=%d gossip=%d; the move produced no false suspicions", asyncPeak, gossipPeak)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if atoi(t, last[1]) != 0 {
		t.Errorf("async series did not converge to zero: %v", last)
	}
	if atoi(t, last[2]) != 0 {
		t.Errorf("gossip series did not converge to zero: %v", last)
	}
}
