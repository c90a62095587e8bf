package main

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteReportKeepsNonRegularTarget: pointed at a named pipe, the
// report goes through the pipe and the pipe stays a pipe; renaming a
// temp file over it would have replaced the node with a regular file.
func TestWriteReportKeepsNonRegularTarget(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "report.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	want := []byte("{\"report\":1}\n")
	got := make(chan []byte, 1)
	go func() {
		f, err := os.Open(fifo)
		if err != nil {
			got <- nil
			return
		}
		defer f.Close()
		b, _ := io.ReadAll(f)
		got <- b
	}()
	if err := writeReport(fifo, want); err != nil {
		t.Fatal(err)
	}
	if b := <-got; string(b) != string(want) {
		t.Errorf("reader got %q, want %q", b, want)
	}
	fi, err := os.Lstat(fifo)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("target is %v after the write, want a named pipe", fi.Mode())
	}
}

// TestWriteReportReplacesRegularFile: a regular target is replaced
// whole, through a temp file that does not outlive the write.
func TestWriteReportReplacesRegularFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	if err := os.WriteFile(path, []byte("an older, longer report\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte("{}\n")
	if err := writeReport(path, want); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != string(want) {
		t.Errorf("report reads %q (%v), want %q", b, err, want)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Errorf("directory holds %d entries (%v), want the report alone", len(ents), err)
	}
}
