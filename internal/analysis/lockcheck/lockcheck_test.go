package lockcheck_test

import (
	"testing"

	"netmark/internal/analysis/analysistest"
	"netmark/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, ".", "a", lockcheck.Analyzer)
}

func TestLockcheckScope(t *testing.T) {
	analysistest.Run(t, ".", "scope", lockcheck.Analyzer)
}
