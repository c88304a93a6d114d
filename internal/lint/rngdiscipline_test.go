package lint_test

import (
	"testing"

	"asyncfd/internal/lint"
	"asyncfd/internal/lint/linttest"
)

func TestRNGDiscipline(t *testing.T) {
	linttest.Run(t, lint.RNGDiscipline,
		"asyncfd/internal/exp/rngfix",
		"asyncfd/internal/des/rngfix",
		"asyncfd/internal/tcpnet/rngfix",
	)
}
