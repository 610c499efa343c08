package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/xmlstore"
)

// A netmarkd that gets SIGTERM while its daemon is committing a drop
// exits cleanly: the daemon's run ends, with every file it stored
// archived, before the store closes, and the store reopens with nothing
// to replay and every archived document in it.
func TestSIGTERMWhileCommitting(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "netmarkd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build netmarkd: %v\n%s", err, out)
	}
	drop, dir := t.TempDir(), t.TempDir()
	docs := corpus.New(3).Mixed(2000)
	for _, d := range docs {
		if err := os.WriteFile(filepath.Join(drop, d.Name), d.Data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-drop", drop, "-poll", "20ms")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	running := true
	defer func() {
		if running {
			cmd.Process.Kill()
			<-exited
		}
	}()

	// The first archived file means the first chunk's commit has landed
	// while the rest of the drop is still in the pipeline.
	processed := filepath.Join(drop, ".processed")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if entries, _ := os.ReadDir(processed); len(entries) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no file archived within 30 s; stderr:\n%s", stderr.String())
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if left := dropped(t, drop); left > 0 {
		t.Logf("SIGTERM with %d of %d files not yet archived", left, len(docs))
	}
	select {
	case err := <-exited:
		running = false
		if err != nil {
			t.Fatalf("netmarkd exited with %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("netmarkd still running 60 s after SIGTERM; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "netmarkd: shut down cleanly") {
		t.Fatalf("stdout %q does not report a clean shutdown", stdout.String())
	}
	if left := dropped(t, drop); left != 0 {
		t.Fatalf("%d files left in the drop folder: the scan stopped short", left)
	}

	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Replayed != 0 {
		t.Fatalf("the reopen replayed %d records after a clean shutdown", db.Replayed)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	archived, err := os.ReadDir(processed)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumDocuments(); got != int64(len(archived)) || len(archived) != len(docs) {
		t.Fatalf("%d documents stored, %d archived, %d dropped", got, len(archived), len(docs))
	}
	for _, e := range archived {
		if _, err := s.DocumentByName(e.Name()); err != nil {
			t.Fatalf("archived %s: %v", e.Name(), err)
		}
	}
}

// dropped counts the documents still in the drop folder.
func dropped(t *testing.T, drop string) int {
	t.Helper()
	entries, err := os.ReadDir(drop)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}
