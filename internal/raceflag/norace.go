//go:build !race

// Package raceflag tells tests whether the race detector is compiled in. The
// testing.AllocsPerRun guards that lock the simulator's hot paths at zero
// allocations skip themselves when it is: the race runtime allocates on its
// own account.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
