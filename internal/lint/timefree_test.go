package lint_test

import (
	"testing"

	"asyncfd/internal/lint"
	"asyncfd/internal/lint/linttest"
)

func TestTimeFree(t *testing.T) {
	linttest.Run(t, lint.TimeFree,
		"asyncfd/internal/core",
		"asyncfd/internal/core/tagset",
	)
}
