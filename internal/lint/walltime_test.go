package lint_test

import (
	"testing"

	"asyncfd/internal/lint"
	"asyncfd/internal/lint/linttest"
)

func TestWallTime(t *testing.T) {
	linttest.Run(t, lint.WallTime,
		"asyncfd/internal/netsim/wtfix",
		"asyncfd/internal/tcpnet/wtfix",
	)
}
