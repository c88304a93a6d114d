package lint_test

import (
	"testing"

	"asyncfd/internal/lint"
	"asyncfd/internal/lint/linttest"
)

func TestMapRange(t *testing.T) {
	linttest.Run(t, lint.MapRange,
		"asyncfd/internal/qos/mrfix",
		"asyncfd/internal/tcpnet/mrfix",
	)
}
