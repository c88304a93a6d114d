// Command fdload drives the sharded live detector runtime
// (internal/liveshard behind internal/tcpnet) at scale over real localhost
// sockets and reports what the hot path actually achieved: sustained
// heartbeats/sec, ingest-to-estimate latency quantiles, send-path stall
// bounds, and live QoS (detection time and mistakes, via the same qos.Fold
// the simulator uses) for a cohort of peers killed mid-run.
//
// Usage:
//
//	fdload [-peers N] [-shards LIST] [-senders S] [-interval D] [-dur D]
//	       [-kill N] [-estimator heartbeat|phi] [-json FILE] [-v]
//
// The topology is one monitor process and S sender processes, each a real
// tcpnet.Transport on 127.0.0.1. The N monitored peers are *logical*: each
// sender multiplexes heartbeats for its slice of the N peer identities over
// one TCP connection (the liveshard service keys ingestion on the
// heartbeat's own From field), which is how a single-machine run reaches
// 10k peers without 10k file descriptors. Every heartbeat still crosses a
// real socket, exercises the framed wire codec, the per-connection writer
// goroutines and the sharded ingest queues.
//
// -shards is a comma-separated list of worker counts K; the whole load run
// repeats per K so reports show how throughput and ingest latency scale
// with sharding. Halfway through each run a -kill cohort of peers goes
// silent and ground truth records the instant, so the report carries real
// detection latencies measured through the full socket path.
//
// -json writes a machine-readable report (schema "asyncfd-livebench/v1",
// "-" = stdout); CHANGES to the schema bump the version. BENCH_live.json at
// the repository root is a committed run of this tool at the acceptance
// configuration (-peers 10000 -shards 1,4,16); CI regenerates a smoke-size
// run on every push and structurally validates the committed file.
//
// Unlike fdbench, numbers here are wall-clock measurements of a real
// concurrent system and are NOT byte-reproducible across runs or machines;
// the report is evidence of scale, not a golden.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/liveshard"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/qos"
	"asyncfd/internal/tcpnet"
	"asyncfd/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fdload:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set for one invocation.
type config struct {
	peers     int
	shards    []int
	senders   int
	interval  time.Duration
	dur       time.Duration
	kill      int
	estimator string
	jsonPath  string
	verbose   bool
}

// report is the -json document (schema asyncfd-livebench/v1).
type report struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"go_max_procs"`
	Peers      int    `json:"peers"`
	Senders    int    `json:"senders"`
	IntervalMS int64  `json:"interval_ms"`
	DurationMS int64  `json:"duration_ms"`
	Estimator  string `json:"estimator"`
	Rows       []row  `json:"rows"`
}

// row is the measurement for one shard count K.
type row struct {
	Shards    int     `json:"shards"`
	HBPerSec  float64 `json:"hb_per_sec"`
	Processed uint64  `json:"heartbeats"`

	IngestP50us int64 `json:"ingest_p50_us"`
	IngestP99us int64 `json:"ingest_p99_us"`

	// MaxSendStallMS is the worst single Send() call observed across every
	// sender; StallsOver100ms counts calls above the 100ms acceptance bound
	// (must be 0: the async send path never blocks on the network).
	MaxSendStallMS  float64 `json:"max_send_stall_ms"`
	StallsOver100ms uint64  `json:"send_stalls_over_100ms"`

	FramesSent    uint64  `json:"frames_sent"`
	FramesDropped uint64  `json:"frames_dropped"`
	Writes        uint64  `json:"writes"`
	Coalesce      float64 `json:"coalesce"` // frames per kernel write
	DroppedOldest uint64  `json:"ingest_dropped_oldest"`
	DroppedNewest uint64  `json:"ingest_dropped_newest"`

	verdict

	WallMS int64 `json:"wall_ms"`
}

// verdict is the live QoS of one run, as the simulator's judge reads it off
// the monitor's suspicion trace.
type verdict struct {
	Killed      int     `json:"killed"`
	Detected    int     `json:"detected"`
	Missed      int     `json:"missed"`
	DetectAvgMS float64 `json:"detect_avg_ms"`
	DetectMaxMS float64 `json:"detect_max_ms"`
	// FalseEpisodes counts suspicion episodes of peers that were alive and
	// heartbeating (closed + still open at the horizon).
	FalseEpisodes int `json:"false_episodes"`
}

// judgeRun judges the trace of a run in which peers 0..peers-1 were watched
// by monitorID and the highest kill of them went silent at the instants
// truth records: detection latency for the killed cohort, false-suspicion
// episodes for everyone else.
func judgeRun(log *trace.Log, truth *qos.GroundTruth, monitorID ident.ID, peers, kill int, horizon time.Duration) verdict {
	observers := ident.SetOf(monitorID)
	killed := make([]*qos.Detection, kill)
	folded := make([]qos.Metric, 0, kill+1)
	for i := range killed {
		killed[i] = qos.NewDetectionTimes(truth, ident.ID(peers-kill+i), observers)
		folded = append(folded, killed[i])
	}
	// Mistakes counts a pair only when both ends are members, and the one
	// observer in the trace is the monitor.
	members := ident.FullSet(peers)
	members.Add(monitorID)
	mistakes := qos.NewMistakes(truth, members, horizon)
	qos.Fold(log, append(folded, mistakes)...)
	v := verdict{Killed: kill}
	var detSum, detMax time.Duration
	for _, det := range killed {
		ds := det.Result()
		if ds.Count > 0 {
			v.Detected++
			detSum += ds.Avg
			if ds.Avg > detMax {
				detMax = ds.Avg
			}
		} else {
			v.Missed++
		}
	}
	if v.Detected > 0 {
		v.DetectAvgMS = qos.Millis(detSum / time.Duration(v.Detected))
		v.DetectMaxMS = qos.Millis(detMax)
	}
	ms := mistakes.Result()
	v.FalseEpisodes = ms.Count + ms.Unresolved
	return v
}

func run(args []string) error {
	fs := flag.NewFlagSet("fdload", flag.ContinueOnError)
	cfg := config{}
	var shardList string
	fs.IntVar(&cfg.peers, "peers", 10000, "logical monitored peers")
	fs.StringVar(&shardList, "shards", "1,4,16", "comma-separated shard counts K to sweep")
	fs.IntVar(&cfg.senders, "senders", 8, "sender processes multiplexing the peers")
	fs.DurationVar(&cfg.interval, "interval", 250*time.Millisecond, "heartbeat interval per peer")
	fs.DurationVar(&cfg.dur, "dur", 6*time.Second, "measured load duration per shard count")
	fs.IntVar(&cfg.kill, "kill", 16, "peers killed mid-run for live QoS measurement")
	fs.StringVar(&cfg.estimator, "estimator", "heartbeat", "per-peer estimator: heartbeat|phi")
	fs.StringVar(&cfg.jsonPath, "json", "", "write JSON report to FILE (\"-\" = stdout)")
	fs.BoolVar(&cfg.verbose, "v", false, "log per-phase progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.peers < 1 {
		return errors.New("-peers must be >= 1")
	}
	if cfg.senders < 1 {
		return errors.New("-senders must be >= 1")
	}
	if cfg.kill < 0 || cfg.kill >= cfg.peers {
		return errors.New("-kill must be in [0, peers)")
	}
	if cfg.interval <= 0 {
		return errors.New("-interval must be > 0")
	}
	if cfg.dur <= 0 {
		return errors.New("-dur must be > 0")
	}
	if cfg.estimator != "heartbeat" && cfg.estimator != "phi" {
		return fmt.Errorf("unknown -estimator %q (want heartbeat or phi)", cfg.estimator)
	}
	shards, err := parseShards(shardList)
	if err != nil {
		return err
	}
	cfg.shards = shards

	rep := report{
		Schema:     "asyncfd-livebench/v1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Peers:      cfg.peers,
		Senders:    cfg.senders,
		IntervalMS: cfg.interval.Milliseconds(),
		DurationMS: cfg.dur.Milliseconds(),
		Estimator:  cfg.estimator,
	}
	for _, k := range cfg.shards {
		r, err := runOne(cfg, k)
		if err != nil {
			return fmt.Errorf("K=%d: %w", k, err)
		}
		rep.Rows = append(rep.Rows, r)
	}

	if cfg.jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if cfg.jsonPath == "-" {
			_, err = os.Stdout.Write(raw)
			return err
		}
		return os.WriteFile(cfg.jsonPath, raw, 0o644)
	}
	renderTable(os.Stdout, rep)
	return nil
}

func parseShards(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, err := strconv.Atoi(f)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers)", f)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, errors.New("-shards is empty")
	}
	return out, nil
}

// sender is one load-generating process: a real transport plus the slice of
// logical peer identities it heartbeats on behalf of.
type sender struct {
	tr    *tcpnet.Transport
	chunk []ident.ID
}

// stallTrack aggregates Send() latency across all sender goroutines.
type stallTrack struct {
	maxNS   atomic.Int64
	over100 atomic.Uint64
}

func (s *stallTrack) record(d time.Duration) {
	ns := int64(d)
	for {
		cur := s.maxNS.Load()
		if ns <= cur || s.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	if d > 100*time.Millisecond {
		s.over100.Add(1)
	}
}

// runOne executes the full load scenario at one shard count.
func runOne(cfg config, k int) (row, error) {
	logf := func(format string, a ...any) {
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "fdload: K=%d: "+format+"\n", append([]any{k}, a...)...)
		}
	}
	wallStart := time.Now()

	// Identity plan: logical peers are 0..peers-1; the monitor and the
	// sender processes use identities above that range.
	monitorID := ident.ID(cfg.peers)
	timeout := 4 * cfg.interval

	log := &trace.Log{}
	svc, err := liveshard.New(liveshard.Config{
		Self:         monitorID,
		Shards:       k,
		QueueLen:     4096,
		ScanInterval: 10 * time.Millisecond,
		NewEstimator: newEstimatorFactory(cfg.estimator, cfg.interval, timeout),
		Sink:         log,
	})
	if err != nil {
		return row{}, err
	}
	defer svc.Close()

	monitor, err := tcpnet.New(tcpnet.Config{
		Self:              monitorID,
		ListenAddr:        "127.0.0.1:0",
		Handler:           svc,
		ConcurrentDeliver: true, // the sharded service is internally synchronized
	})
	if err != nil {
		return row{}, err
	}
	defer monitor.Close()

	// Register all logical peers, then start the shard workers. The start
	// of monitoring counts as a sighting, so every peer begins trusted.
	ids := make([]ident.ID, cfg.peers)
	for i := range ids {
		ids[i] = ident.ID(i)
	}
	svc.AddPeers(ids...)
	svc.Start()

	// Senders: each multiplexes a slice of the logical peers over one real
	// connection to the monitor. The send queue is sized to a full pass so
	// a burst of heartbeats never drops on the sender side.
	senders := make([]*sender, cfg.senders)
	chunkLen := (cfg.peers + cfg.senders - 1) / cfg.senders
	for i := range senders {
		lo := i * chunkLen
		hi := lo + chunkLen
		if hi > cfg.peers {
			hi = cfg.peers
		}
		tr, err := tcpnet.New(tcpnet.Config{
			Self:       ident.ID(cfg.peers + 1 + i),
			ListenAddr: "127.0.0.1:0",
			Handler:    node.HandlerFunc(func(ident.ID, any) {}),
			SendQueue:  2*chunkLen + 64,
		})
		if err != nil {
			return row{}, err
		}
		defer tr.Close()
		tr.AddPeer(monitorID, monitor.Addr())
		var chunk []ident.ID
		if lo < hi {
			chunk = ids[lo:hi]
		}
		senders[i] = &sender{tr: tr, chunk: chunk}
	}

	// The kill cohort: the highest -kill peer identities go silent halfway
	// through the measured window. killBoundary is read atomically by the
	// sender loops; peers and ground truth share the service clock.
	killBoundary := atomic.Int64{}
	killBoundary.Store(int64(cfg.peers)) // nothing killed yet
	truth := &qos.GroundTruth{}

	var stalls stallTrack
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, sd := range senders {
		if len(sd.chunk) == 0 {
			continue
		}
		wg.Add(1)
		go func(sd *sender) {
			defer wg.Done()
			seq := uint64(0)
			for {
				seq++
				passStart := time.Now()
				boundary := ident.ID(killBoundary.Load())
				for _, id := range sd.chunk {
					if id >= boundary {
						continue
					}
					t0 := time.Now()
					sd.tr.Send(monitorID, heartbeat.Message{From: id, Seq: seq})
					stalls.record(time.Since(t0))
				}
				rest := cfg.interval - time.Since(passStart)
				if rest > 0 {
					select {
					case <-stop:
						return
					case <-time.After(rest):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}(sd)
	}

	// Warmup: let dials complete and a couple of heartbeat passes land
	// before the measured window opens.
	warmup := 2 * cfg.interval
	if warmup < 500*time.Millisecond {
		warmup = 500 * time.Millisecond
	}
	time.Sleep(warmup)
	logf("warmup done (%v), measuring %v", warmup, cfg.dur)

	stats0 := svc.Stats()
	measureStart := time.Now()

	// Half the window in steady state, then the kill, then the rest.
	time.Sleep(cfg.dur / 2)
	killAt := svc.Now()
	killBoundary.Store(int64(cfg.peers - cfg.kill))
	for i := cfg.peers - cfg.kill; i < cfg.peers; i++ {
		truth.Crash(ident.ID(i), killAt)
	}
	logf("killed %d peers at service time %v", cfg.kill, killAt)
	time.Sleep(cfg.dur - cfg.dur/2)

	stats1 := svc.Stats()
	elapsed := time.Since(measureStart)

	// Grace period: every killed peer must cross its timeout and a scan
	// sweep before the trace is judged.
	if cfg.kill > 0 {
		time.Sleep(timeout + 250*time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for _, sd := range senders {
		sd.tr.Close()
	}
	horizon := svc.Now()
	svc.Close()
	monitor.Close()

	// Transport totals across the sender side (the monitor only receives).
	var net tcpnet.Stats
	for _, sd := range senders {
		st := sd.tr.Stats()
		net.FramesSent += st.FramesSent
		net.FramesDropped += st.FramesDropped
		net.Writes += st.Writes
	}

	r := row{
		Shards:        k,
		Processed:     stats1.Processed - stats0.Processed,
		IngestP50us:   stats1.IngestP50.Microseconds(),
		IngestP99us:   stats1.IngestP99.Microseconds(),
		FramesSent:    net.FramesSent,
		FramesDropped: net.FramesDropped,
		Writes:        net.Writes,
		DroppedOldest: stats1.DroppedOldest,
		DroppedNewest: stats1.DroppedNewest,
		verdict:       judgeRun(log, truth, monitorID, cfg.peers, cfg.kill, horizon),
	}
	r.HBPerSec = float64(r.Processed) / elapsed.Seconds()
	if net.Writes > 0 {
		r.Coalesce = float64(net.FramesSent) / float64(net.Writes)
	}
	r.MaxSendStallMS = float64(stalls.maxNS.Load()) / float64(time.Millisecond)
	r.StallsOver100ms = stalls.over100.Load()

	r.WallMS = time.Since(wallStart).Milliseconds()
	logf("done: %.0f hb/s, p99 ingest %dus, %d/%d detected",
		r.HBPerSec, r.IngestP99us, r.Detected, r.Killed)
	return r, nil
}

// newEstimatorFactory builds the per-peer estimator constructor for the
// sharded service.
func newEstimatorFactory(kind string, interval, timeout time.Duration) func(ident.ID, time.Duration) liveshard.PeerEstimator {
	if kind == "phi" {
		return func(_ ident.ID, now time.Duration) liveshard.PeerEstimator {
			e, err := phiaccrual.NewEstimator(phiaccrual.EstimatorConfig{
				Interval:  interval,
				Threshold: 8,
			}, now)
			if err != nil {
				panic(err) // config is validated above; interval > 0
			}
			return e
		}
	}
	return func(_ ident.ID, now time.Duration) liveshard.PeerEstimator {
		return heartbeat.NewEstimator(timeout, now)
	}
}

// renderTable prints the human-readable report.
func renderTable(w *os.File, rep report) {
	fmt.Fprintf(w, "fdload: %d peers, %d senders, %v interval, %v window, %s estimator\n",
		rep.Peers, rep.Senders, time.Duration(rep.IntervalMS)*time.Millisecond,
		time.Duration(rep.DurationMS)*time.Millisecond, rep.Estimator)
	fmt.Fprintf(w, "%6s %12s %10s %10s %12s %9s %10s %8s %7s\n",
		"K", "hb/s", "p50 ing", "p99 ing", "max stall", "coalesce", "detected", "avg det", "false")
	rows := append([]row(nil), rep.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Shards < rows[j].Shards })
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12.0f %9dµs %9dµs %10.1fms %9.1f %6d/%-3d %6.0fms %7d\n",
			r.Shards, r.HBPerSec, r.IngestP50us, r.IngestP99us,
			r.MaxSendStallMS, r.Coalesce, r.Detected, r.Killed, r.DetectAvgMS, r.FalseEpisodes)
	}
}
