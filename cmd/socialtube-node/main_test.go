package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/obs"
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

// TestPlaneSpecValidation: a -tracker spec with an empty shard or an empty
// address is refused, not read as a smaller plane, and a tracker's -id
// must name one of the spec's endpoints.
func TestPlaneSpecValidation(t *testing.T) {
	tests := []struct {
		spec   string
		shards int // 0: refused
	}{
		{"a:1", 1},
		{"a:1,b:1", 1},
		{"a:1;b:1", 2},
		{" a:1 , b:1 ; c:1 ", 2},
		{"a:1,b:1;c:1,d:1", 2},
		{"", 0},
		{";", 0},
		{"a:1;", 0},
		{";a:1", 0},
		{"a:1,", 0},
		{"a:1,,b:1", 0},
		{"a:1,b:1;;c:1,d:1", 0},
		{"a:1; ,b:1", 0},
	}
	for _, tt := range tests {
		cp, err := parsePlaneSpec(tt.spec, 1)
		switch {
		case tt.shards == 0 && err == nil:
			t.Errorf("spec %q accepted as %d shard(s)", tt.spec, cp.NumShards())
		case tt.shards > 0 && err != nil:
			t.Errorf("spec %q refused: %v", tt.spec, err)
		case tt.shards > 0 && cp.NumShards() != tt.shards:
			t.Errorf("spec %q has %d shards, want %d", tt.spec, cp.NumShards(), tt.shards)
		}
	}
	path := writeTrace(t)
	for _, args := range [][]string{
		{"-role", "tracker", "-tracker", "127.0.0.1:1;127.0.0.1:2", "-id", "2"},
		{"-role", "tracker", "-tracker", "127.0.0.1:1,127.0.0.1:2;127.0.0.1:3", "-id", "3"},
		{"-role", "tracker", "-tracker", "127.0.0.1:1,,127.0.0.1:2", "-id", "0"},
		{"-role", "peer", "-tracker", "127.0.0.1:1;;127.0.0.1:2"},
	} {
		if err := run(append(args, "-trace", path), make(chan struct{})); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startNode runs a tracker element in a goroutine until the returned stop
// is called, once addr accepts connections.
func startNode(t *testing.T, addr string, args ...string) (stop func()) {
	t.Helper()
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() { done <- run(args, quit) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("element %v never listened on %s", args, addr)
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(quit)
			if err := <-done; err != nil {
				t.Errorf("element %v: %v", args, err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// trackerCounters scrapes a tracker element's /metrics.
func trackerCounters(t *testing.T, metricsAddr string) emu.TrackerMetrics {
	t.Helper()
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m emu.TrackerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrossShardLivenessAcrossProcesses: a 2x1 plane made of two tracker
// elements, each started from the same spec with its own -id, runs the
// plane's liveness. Once one element stops, the survivor declares its
// shard dead.
func TestCrossShardLivenessAcrossProcesses(t *testing.T) {
	path := writeTrace(t)
	a, b := freeAddr(t), freeAddr(t)
	spec := a + ";" + b
	metrics := []string{freeAddr(t), freeAddr(t)}
	element := func(addr string, id int) func() {
		return startNode(t, addr, "-role", "tracker", "-trace", path, "-tracker", spec,
			"-ring-seed", "1", "-id", strconv.Itoa(id), "-metrics", metrics[id])
	}
	element(a, 0)
	stopB := element(b, 1)
	// B answering a few of A's syncs means A has merged B's beats.
	wait := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no %s within 10 s", what)
			}
		}
	}
	wait("gossip from A to B", func() bool { return trackerCounters(t, metrics[1]).RequestsByType[emu.MsgSync] >= 3 })
	var before obs.Counters
	wait("settled verdicts at A", func() bool {
		before = trackerCounters(t, metrics[0]).Counters
		return before.ShardsDeclaredDead == before.ShardsRevived
	})
	stopB()
	wait("death verdict at A", func() bool {
		return trackerCounters(t, metrics[0]).Counters.ShardsDeclaredDead > before.ShardsDeclaredDead
	})
}

// syncBuffer is a bytes.Buffer safe for the elements' concurrent writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// clusterServes records the videos one node of a cluster requests.
type clusterServes struct {
	mu     sync.Mutex
	node   int
	videos []int64
}

func (c *clusterServes) Emit(ev obs.Event) {
	if ev.Kind == obs.KindServe && ev.Node == c.node {
		c.mu.Lock()
		c.videos = append(c.videos, ev.Video)
		c.mu.Unlock()
	}
}

// TestPeerReplaysClusterPeer: a peer element is peer -id of an in-process
// cluster with the same seed: it requests the same videos in the same
// order over the same sessions.
func TestPeerReplaysClusterPeer(t *testing.T) {
	path := writeTrace(t)
	out := &syncBuffer{}
	stdout = out
	t.Cleanup(func() { stdout = os.Stdout })
	addr := freeAddr(t)
	startNode(t, addr, "-role", "tracker", "-trace", path, "-addr", addr)
	const peer, seed, sessions, videos = 5, 9, 3, 3
	if err := run([]string{"-role", "peer", "-trace", path, "-tracker", addr,
		"-id", strconv.Itoa(peer), "-seed", strconv.Itoa(seed), "-sessions", strconv.Itoa(sessions),
		"-videos", strconv.Itoa(videos), "-watch", "5ms"}, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if i := slices.Index(f, "serve"); i >= 0 && len(f) > i+3 && f[i+2] == "video" {
			v, err := strconv.ParseInt(f[i+3], 10, 64)
			if err != nil {
				t.Fatalf("serve line %q: %v", line, err)
			}
			got = append(got, v)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.LoadStream(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg := emu.DefaultClusterConfig(emu.ModeSocialTube)
	cfg.Peers, cfg.Sessions, cfg.VideosPerSession, cfg.Seed = peer+1, sessions, videos, seed
	cfg.WatchTime, cfg.MeanOffTime = 5*time.Millisecond, 5*time.Millisecond
	want := &clusterServes{node: peer}
	cfg.Tracer = want
	if _, err := emu.RunClusterCtx(context.Background(), cfg, tr); err != nil {
		t.Fatal(err)
	}
	if len(want.videos) != sessions*videos || !slices.Equal(got, want.videos) {
		t.Fatalf("the peer element requested %v; peer %d of the cluster requested %v", got, peer, want.videos)
	}
}
