//go:build race

package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
