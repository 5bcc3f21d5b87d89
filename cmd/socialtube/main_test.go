package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/trace"
)

func TestRunSingleFigure(t *testing.T) {
	args := []string{"-fig", "9", "-channels", "40", "-users", "120", "-categories", "6"}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllFigures(t *testing.T) {
	args := []string{"-fig", "trace", "-channels", "30", "-users", "100", "-categories", "6"}
	if err := run(args); err != nil {
		t.Fatalf("run trace group: %v", err)
	}
}

func TestRunAnalyticalFigures(t *testing.T) {
	if err := run([]string{"-fig", "15"}); err != nil {
		t.Fatalf("fig 15: %v", err)
	}
	if err := run([]string{"-fig", "table1"}); err != nil {
		t.Fatalf("table1: %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{"unknown name", []string{"-fig", "nope"}},
		{"unknown trace figure number", []string{"-fig", "99", "-channels", "10", "-users", "50", "-categories", "6"}},
		{"unknown name with -peers", []string{"-fig", "nope", "-peers", "4"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
		})
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBadFlags(t *testing.T) {
	// The sweeps build their own traces: a flag reading the shared one
	// is refused, not dropped. So is a flag given with a mode that does
	// not read it; the event trace is valid, so only the flag is at fault.
	events := filepath.Join(t.TempDir(), "events.jsonl")
	line := `{"t":3000,"proto":"NetTube","kind":"join","node":4,"video":-1,"provider":-1}` + "\n"
	if err := os.WriteFile(events, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"unknown flag after emulation flags", []string{"-fig", "16b", "-peers", "4", "-bogus"}},
		{"trace-out with fig scale", []string{"-fig", "scale", "-trace-out", filepath.Join(t.TempDir(), "t.jsonl")}},
		{"trace-out with fig load", []string{"-fig", "load", "-trace-out", filepath.Join(t.TempDir(), "t.jsonl")}},
		{"json with fig scale", []string{"-fig", "scale", "-json"}},
		{"json with fig load", []string{"-fig", "load", "-json"}},
		{"trace-max with a figure", []string{"-fig", "15", "-trace-max", "5"}},
		{"json with bench-out", []string{"-json", "-bench-out", filepath.Join(t.TempDir(), "b.jsonl")}},
		{"json with csv", []string{"-json", "-csv"}},
		{"json with an explicit figure", []string{"-json", "-fig", "15"}},
		{"trace-check with a figure", []string{"-trace-check", events, "-fig", "16a"}},
	} {
		t.Run(tt.name, func(t *testing.T) { refusedSilently(t, tt.args) })
	}
}

func TestRunBadTraceConfig(t *testing.T) {
	if err := run([]string{"-channels", "0"}); err == nil {
		t.Fatal("expected trace config error")
	}
}

// TestRunRejectsBadCounts pins the fail-fast flag validation: negative
// counts and misplaced flags error out before any trace is built, so
// before a banner or a figure reaches stdout.
func TestRunRejectsBadCounts(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"negative users", []string{"-fig", "scale", "-users", "-4"}},
		{"users outside scale/load", []string{"-fig", "16a", "-users", "100"}},
		{"users over the shared sim trace", []string{"-fig", "all", "-users", "500"}},
		{"load flags outside fig load", []string{"-fig", "16a", "-load-rps", "3,18"}},
		{"load flags with fig scale", []string{"-fig", "scale", "-load-rps", "3,18"}},
		{"bad load rps", []string{"-fig", "load", "-load-rps", "3,banana"}},
		{"bad load mode", []string{"-fig", "load", "-load-mode", "lunar"}},
		{"bad load scale", []string{"-fig", "load", "-scale", "10m"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { refusedSilently(t, tt.args) })
	}
}

// TestRunRejectsBadEmulationCounts is the same check for nonpositive
// emulation workloads: they error out before a TCP cluster is spun up.
func TestRunRejectsBadEmulationCounts(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"zero peers", []string{"-fig", "16b", "-peers", "0"}},
		{"negative peers", []string{"-fig", "16b", "-peers", "-8"}},
		{"zero sessions", []string{"-fig", "16b", "-sessions", "0"}},
		{"negative videos", []string{"-fig", "16b", "-videos", "-1"}},
		{"zero watch", []string{"-fig", "16b", "-watch", "0s"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { refusedSilently(t, tt.args) })
	}
}

// refusedSilently fails t unless run refuses args without printing
// anything to stdout.
func refusedSilently(t *testing.T, args []string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = stdout
	if err == nil {
		t.Fatalf("args %v accepted", args)
	}
	if printed, _ := os.ReadFile(out.Name()); len(printed) > 0 {
		t.Fatalf("args %v refused only after printing %q", args, printed)
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

func TestRunEmuFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster run")
	}
	args := []string{
		"-fig", "16b", "-peers", "8", "-sessions", "1", "-videos", "3",
		"-watch", (5 * time.Millisecond).String(),
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}
