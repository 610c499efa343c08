package xmlstore

import (
	"fmt"
	"os"
	"testing"

	"netmark/internal/ordbms"
)

// logCut is a log file a crash could have left, named for messages.
type logCut struct {
	name string
	log  []byte
}

// readLog takes the log file at path apart.
func readLog(t testing.TB, path string) (file []byte, img *ordbms.LogImage) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if img, err = ordbms.ReadLog(file); err != nil {
		t.Fatal(err)
	}
	return file, img
}

// recordCuts is a log of exactly the records before each record boundary
// of img, the empty log and the whole one included.
func recordCuts(img *ordbms.LogImage) []logCut {
	cuts := make([]logCut, 0, len(img.Types)+1)
	for k := 0; k <= len(img.Types); k++ {
		cuts = append(cuts, logCut{fmt.Sprintf("after %d records", k), img.Framed(k)})
	}
	return cuts
}

// frameCuts is the log file cut at every frame boundary and twice inside
// every frame: in its header and in the middle of its payload.
func frameCuts(file []byte, img *ordbms.LogImage) []logCut {
	var cuts []logCut
	for _, at := range img.Cuts() {
		cuts = append(cuts, logCut{fmt.Sprintf("at byte %d", at), file[:at]})
	}
	return cuts
}
