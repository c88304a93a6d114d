// Package node is the fixture stand-in for the interface through which the
// round runtime arms its deadlines.
package node

// Env is a process's view of its runtime.
type Env interface{ Now() int64 }
