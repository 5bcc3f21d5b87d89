package main

import (
	"path/filepath"
	"testing"
)

func TestRunAnalyticalFigures(t *testing.T) {
	if err := run([]string{"-fig", "15"}); err != nil {
		t.Fatalf("fig 15: %v", err)
	}
	if err := run([]string{"-fig", "table1"}); err != nil {
		t.Fatalf("table1: %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "nope"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("expected flag parse error")
	}
	// The sweeps build their own traces: a flag reading the shared one
	// is refused, not dropped.
	for _, args := range [][]string{
		{"-fig", "scale", "-trace-out", filepath.Join(t.TempDir(), "t.jsonl")},
		{"-fig", "load", "-trace-out", filepath.Join(t.TempDir(), "t.jsonl")},
		{"-fig", "scale", "-json"},
		{"-fig", "load", "-json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunRejectsBadCounts pins the fail-fast flag validation: negative
// counts and misplaced flags error out before any trace is built.
func TestRunRejectsBadCounts(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"negative shards", []string{"-fig", "scale", "-shards", "-1"}},
		{"negative users", []string{"-fig", "scale", "-users", "-4"}},
		{"shards outside scale/load", []string{"-fig", "16a", "-shards", "2"}},
		{"shards on fig load", []string{"-fig", "load", "-shards", "2"}},
		{"users outside scale/load", []string{"-fig", "16a", "-users", "100"}},
		{"load flags outside fig load", []string{"-fig", "16a", "-load-rps", "3,18"}},
		{"bad load rps", []string{"-fig", "load", "-load-rps", "3,banana"}},
		{"bad load mode", []string{"-fig", "load", "-load-mode", "lunar"}},
		{"bad load scale", []string{"-fig", "load", "-scale", "10m"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
		})
	}
}

func TestRunLoadFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale load sweep")
	}
	if err := run([]string{"-fig", "load",
		"-load-rps", "3,18", "-load-dur", "30s", "-load-flash", "0"}); err != nil {
		t.Fatalf("fig load: %v", err)
	}
}

func TestRunSimFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale simulation")
	}
	if err := run([]string{"-fig", "18a"}); err != nil {
		t.Fatalf("fig 18a: %v", err)
	}
}

func TestRunJSONDump(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale simulation")
	}
	if err := run([]string{"-json"}); err != nil {
		t.Fatalf("json dump: %v", err)
	}
}
