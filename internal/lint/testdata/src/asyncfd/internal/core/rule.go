// Package core seeds timefree fixtures at the detector rule's import path:
// its files other than qrnode.go import neither time nor internal/node.
package core

import (
	"time" // want `asyncfd/internal/core imports time`

	"asyncfd/internal/node" // want `asyncfd/internal/core imports asyncfd/internal/node`
)

var (
	_ = time.Second
	_ node.Env
)
