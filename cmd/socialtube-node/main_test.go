package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/trace"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 81
	cfg.Channels = 20
	cfg.Users = 16
	cfg.Categories = 5
	cfg.MaxInterestsPerUser = 5
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.SaveStream(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRequiresFlags(t *testing.T) {
	stop := make(chan struct{})
	if err := run([]string{}, stop); err == nil {
		t.Fatal("missing -trace accepted")
	}
	path := writeTrace(t)
	if err := run([]string{"-trace", path}, stop); err == nil {
		t.Fatal("missing role accepted")
	}
	if err := run([]string{"-trace", path, "-role", "peer"}, stop); err == nil {
		t.Fatal("peer without tracker accepted")
	}
	if err := run([]string{"-trace", path, "-role", "peer", "-tracker", "127.0.0.1:1", "-mode", "bogus"}, stop); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if err := run([]string{"-trace", path, "-role", "peer", "-tracker", "127.0.0.1:1", "-id", "999"}, stop); err == nil {
		t.Fatal("out-of-trace peer id accepted")
	}
	if err := run([]string{"-trace", "/nonexistent.json", "-role", "tracker"}, stop); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestRunRejectsBadCounts pins the fail-fast flag validation: nonpositive
// workload counts error out before the trace is even loaded (no trace
// file is given, yet the count error must win).
func TestRunRejectsBadCounts(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"zero sessions", []string{"-role", "peer", "-sessions", "0"}},
		{"negative sessions", []string{"-role", "peer", "-sessions", "-2"}},
		{"zero videos", []string{"-role", "peer", "-videos", "0"}},
		{"zero watch", []string{"-role", "peer", "-watch", "0s"}},
		{"negative id", []string{"-role", "peer", "-id", "-1"}},
		{"negative shard", []string{"-role", "tracker", "-shard", "-1"}},
		{"negative replica-self", []string{"-role", "tracker", "-replica-self", "-1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, make(chan struct{})); err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
		})
	}
}

// TestTrackerAndPeerEndToEnd runs the daemon both ways: a tracker goroutine
// plus a peer process loop against it.
func TestTrackerAndPeerEndToEnd(t *testing.T) {
	path := writeTrace(t)
	// Reserve a port for the tracker deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	stop := make(chan struct{})
	trackerDone := make(chan error, 1)
	go func() {
		trackerDone <- run([]string{"-role", "tracker", "-trace", path, "-addr", addr}, stop)
	}()
	// Wait for the tracker to accept connections.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	err = run([]string{
		"-role", "peer", "-trace", path, "-tracker", addr,
		"-id", "1", "-sessions", "1", "-videos", "2", "-watch", "5ms",
	}, make(chan struct{}))
	if err != nil {
		t.Fatalf("peer run: %v", err)
	}
	close(stop)
	if err := <-trackerDone; err != nil {
		t.Fatalf("tracker run: %v", err)
	}
}
