package hotalloc_test

import (
	"testing"

	"netmark/internal/analysis/analysistest"
	"netmark/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, ".", "a", hotalloc.Analyzer)
}

// TestHotallocBoxing runs the boxing cases, which the retired boxcheck
// pass used to report, through the one pass that now reports both.
func TestHotallocBoxing(t *testing.T) {
	analysistest.Run(t, ".", "box", hotalloc.Analyzer)
}
