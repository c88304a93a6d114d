package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runChildren runs each named workload in a fresh process of this binary:
// once for -workload all, repeat times on consecutive seeds for -repeat,
// which then prints each end-to-end metric's median, quartiles and spread
// and fails when a spread exceeds the metric's bound.
func runChildren(names []string, repeat int, cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, name := range names {
		samples := map[string][]float64{}
		for i := 0; i < max(repeat, 1); i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.Itoa(int(cfg.seconds.Seconds())), "-out", cfg.outDir}
			if cfg.trace {
				args = append(args, "-trace", "1")
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			if repeat == 0 || runErr != nil {
				if _, err := io.Copy(os.Stdout, &out); err != nil {
					return err
				}
			}
			if runErr != nil {
				if repeat > 0 {
					return fmt.Errorf("%s seed %d: %w", name, cfg.seed+int64(i), runErr)
				}
				failed = true
			}
			for metric, v := range parseMetrics(out.String()) {
				samples[metric] = append(samples[metric], v)
			}
		}
		if repeat > 0 && !printSpreads(os.Stdout, name, samples) {
			failed = true
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// parseMetrics reads back the "  name value unit" lines a run printed.
func parseMetrics(out string) map[string]float64 {
	values := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || !strings.HasPrefix(line, "  ") {
			continue
		}
		if _, ok := lookupMetric(f[0]); !ok {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			values[f[0]] = v
		}
	}
	return values
}

// quartiles returns the first, second and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them, which is what the benchmark
// driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// printSpreads prints one workload's calibration table and reports whether
// every bounded metric's spread, the interquartile range as a share of the
// median, stays within its bound. setup_s is printed but, as in the driver,
// not held to its bound: its bound is for the drift between medians.
func printSpreads(w io.Writer, workload string, samples map[string][]float64) bool {
	ok := true
	fmt.Fprintf(w, "%s\n  %-26s %12s %12s %12s %8s %6s\n", workload, "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range catalog {
		v := samples[m.name]
		if m.class == perLayer || len(v) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(v)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict := ""
		if m.bound > 0 && spread > m.bound && m.name != "setup_s" {
			verdict = "  EXCEEDS"
			ok = false
		}
		fmt.Fprintf(w, "  %-26s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", m.name, q1, q2, q3, spread, m.bound, verdict)
	}
	return ok
}
