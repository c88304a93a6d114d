package core

import (
	//fdlint:allow timefree a fixture's reason: the escape hatch suppresses
	"time"

	//fdlint:allow timefree
	"asyncfd/internal/node" // want `asyncfd/internal/core imports asyncfd/internal/node`
)

var (
	_ time.Duration
	_ node.Env
)
