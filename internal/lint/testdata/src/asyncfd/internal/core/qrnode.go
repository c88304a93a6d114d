package core

// The round runtime paces rounds with deadlines: it may import both.
import (
	"time"

	"asyncfd/internal/node"
)

var (
	_ = time.Millisecond
	_ node.Env
)
