package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/socialtube/socialtube/internal/trace"
)

func TestRunSingleFigure(t *testing.T) {
	args := []string{"-fig", "9", "-channels", "40", "-users", "120", "-categories", "6"}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllFigures(t *testing.T) {
	args := []string{"-fig", "all", "-channels", "30", "-users", "100", "-categories", "6"}
	if err := run(args); err != nil {
		t.Fatalf("run all: %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99", "-channels", "10", "-users", "50", "-categories", "6"}); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunBadTraceConfig(t *testing.T) {
	if err := run([]string{"-channels", "0"}); err == nil {
		t.Fatal("expected trace config error")
	}
}

func TestRunSaveTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	args := []string{"-fig", "2", "-channels", "20", "-users", "60", "-categories", "6", "-save", out}
	if err := run(args); err != nil {
		t.Fatalf("run with save: %v", err)
	}
	// The file is what socialtube-node -trace reads back.
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("saved trace missing: %v", err)
	}
	defer f.Close()
	tr, err := trace.LoadStream(f)
	if err != nil {
		t.Fatalf("saved trace does not load: %v", err)
	}
	if len(tr.Channels) != 20 || len(tr.Users) != 60 {
		t.Fatalf("loaded %d channels, %d users; want 20, 60", len(tr.Channels), len(tr.Users))
	}
}

func TestRunCSVOutput(t *testing.T) {
	args := []string{"-fig", "6", "-channels", "20", "-users", "60", "-categories", "6", "-csv"}
	if err := run(args); err != nil {
		t.Fatalf("csv run: %v", err)
	}
}

func TestRunCrawlFlag(t *testing.T) {
	args := []string{"-fig", "13", "-channels", "30", "-users", "150", "-categories", "6", "-crawl", "60"}
	if err := run(args); err != nil {
		t.Fatalf("crawl run: %v", err)
	}
}
