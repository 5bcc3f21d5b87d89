package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunSmallSkipEmu(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale evaluation")
	}
	// One -bench-out collects every figure's points: the timeline, load
	// and scale figures each contribute lines tagged with their id.
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-skip-emu", "-bench-out", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"timeline", "load", "scale"} {
		if !strings.Contains(string(raw), `{"fig":"`+fig+`",`) {
			t.Errorf("bench log holds no %s points", fig)
		}
	}
}
