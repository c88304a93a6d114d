package main

import (
	"strings"
	"testing"
)

// TestRunErrorPaths: flag combinations that describe no scenario must
// surface errors, not bogus runs.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown kind", []string{"-kind", "oracle"}, "unknown detector kind"},
		{"crash >= n", []string{"-n", "4", "-f", "1", "-crash", "9"}, "-crash 9"},
		{"crash == n", []string{"-n", "4", "-f", "1", "-crash", "4"}, "-crash 4"},
		{"crash below -1", []string{"-crash", "-2"}, "-crash -2"},
		{"recover without crash", []string{"-recover-at", "15s"}, "-recover-at needs -crash"},
		{"recover before crash", []string{"-crash", "1", "-recover-at", "5s"}, "must be after -crash-at"},
		{"crash2 without recover", []string{"-crash", "1", "-crash2-at", "20s"}, "-crash2-at needs -recover-at"},
		{"heal without partition", []string{"-heal-at", "20s"}, "-heal-at needs -partition-at"},
		{"crash at the horizon", []string{"-crash", "1", "-crash-at", "30s"}, "-crash-at 30s does not precede the horizon"},
		{"crash past the horizon", []string{"-n", "6", "-f", "2", "-crash", "5", "-crash-at", "50s", "-dur", "40s"}, "-crash-at 50s does not precede the horizon"},
		{"recover past the horizon", []string{"-crash", "1", "-recover-at", "45s"}, "-recover-at 45s does not precede the horizon"},
		{"crash2 past the horizon", []string{"-crash", "1", "-recover-at", "15s", "-crash2-at", "30s"}, "-crash2-at 30s does not precede the horizon"},
		{"partition past the horizon", []string{"-partition-at", "50s", "-heal-at", "1m", "-dur", "40s"}, "-partition-at 50s does not precede the horizon"},
		{"heal past the horizon", []string{"-partition-at", "10s", "-heal-at", "40s", "-dur", "40s"}, "-heal-at 40s does not precede the horizon"},
		{"island >= n", []string{"-n", "4", "-f", "1", "-partition-at", "5s", "-island", "4"}, "island size 4"},
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

// TestRunCrashRecovery is the happy path: the last process crashes, recovers
// and crashes again, behind a partition window.
func TestRunCrashRecovery(t *testing.T) {
	args := []string{
		"-n", "6", "-f", "2", "-crash", "5", "-crash-at", "8s", "-recover-at", "16s", "-crash2-at", "24s",
		"-partition-at", "30s", "-heal-at", "34s", "-dur", "40s", "-trace=false",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}
