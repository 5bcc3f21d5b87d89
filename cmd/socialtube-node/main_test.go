package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
)

// nodeArgsEnv, when set, makes the test binary run main with its
// newline-separated arguments instead of the tests, so a test can signal a
// whole element process.
const nodeArgsEnv = "SOCIALTUBE_NODE_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(nodeArgsEnv); ok {
		os.Args = append([]string{"socialtube-node"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

func loadTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.LoadStream(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunRequiresFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{}); err == nil {
		t.Fatal("missing -trace accepted")
	}
	path := writeTrace(t)
	if err := run(ctx, []string{"-trace", path}); err == nil {
		t.Fatal("missing role accepted")
	}
	if err := run(ctx, []string{"-trace", path, "-role", "peer"}); err == nil {
		t.Fatal("peer without tracker accepted")
	}
	if err := run(ctx, []string{"-trace", path, "-role", "peer", "-tracker", "127.0.0.1:1", "-mode", "bogus"}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if err := run(ctx, []string{"-trace", path, "-role", "peer", "-tracker", "127.0.0.1:1", "-id", "999"}); err == nil {
		t.Fatal("out-of-trace peer id accepted")
	}
	if err := run(ctx, []string{"-trace", "/nonexistent.json", "-role", "tracker"}); err == nil {
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
			if err := run(context.Background(), tt.args); err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
		})
	}
}

// TestTrackerAndPeerEndToEnd runs the daemon both ways: a tracker goroutine
// plus a peer process loop against it.
func TestTrackerAndPeerEndToEnd(t *testing.T) {
	path := writeTrace(t)
	addr := freeAddr(t)
	ctx, stop := context.WithCancel(context.Background())
	trackerDone := make(chan error, 1)
	go func() {
		trackerDone <- run(ctx, []string{"-role", "tracker", "-trace", path, "-addr", addr})
	}()
	waitListening(t, addr)

	err := run(context.Background(), []string{
		"-role", "peer", "-trace", path, "-tracker", addr,
		"-id", "1", "-sessions", "1", "-videos", "2", "-watch", "5ms",
	})
	if err != nil {
		t.Fatalf("peer run: %v", err)
	}
	stop()
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
		if err := run(context.Background(), append(args, "-trace", path)); err == nil {
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
	ctx, quit := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	waitListening(t, addr)
	var once sync.Once
	stop = func() {
		once.Do(func() {
			quit()
			if err := <-done; err != nil {
				t.Errorf("element %v: %v", args, err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitListening returns once addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nothing listened on %s", addr)
		}
	}
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
	if err := run(context.Background(), []string{"-role", "peer", "-trace", path, "-tracker", addr,
		"-id", strconv.Itoa(peer), "-seed", strconv.Itoa(seed), "-sessions", strconv.Itoa(sessions),
		"-videos", strconv.Itoa(videos), "-watch", "5ms"}); err != nil {
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

	tr := loadTrace(t, path)
	cfg := emu.NewClusterConfig(emu.ModeSocialTube, sessions, videos, 5*time.Millisecond, seed)
	cfg.Peers = peer + 1
	want := &clusterServes{node: peer}
	cfg.Tracer = want
	if _, err := emu.RunClusterCtx(context.Background(), cfg, tr); err != nil {
		t.Fatal(err)
	}
	if len(want.videos) != sessions*videos || !slices.Equal(got, want.videos) {
		t.Fatalf("the peer element requested %v; peer %d of the cluster requested %v", got, peer, want.videos)
	}
}

// exchange sends req to addr on a connection of its own and returns the
// reply and the round trip that got it, retrying a request the element's
// injected loss dropped unanswered (a dropped request is never served).
func exchange(t *testing.T, addr string, req emu.Message) (*emu.Message, time.Duration) {
	t.Helper()
	var err error
	for range 20 {
		var conn net.Conn
		if conn, err = net.DialTimeout("tcp", addr, time.Second); err != nil {
			continue
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		begin := time.Now()
		var resp *emu.Message
		if err = emu.WriteMessage(conn, &req); err == nil {
			resp, err = emu.ReadMessage(conn)
		}
		rtt := time.Since(begin)
		conn.Close()
		if err == nil {
			return resp, rtt
		}
	}
	t.Fatalf("%s never answered %v: %v", addr, req.Type, err)
	return nil, 0
}

// TestTrackerElementSeedsAsCluster: -seed seeds a tracker element as
// StartCluster seeds its trackers. Endpoint 1 of a 2x1 plane started with
// -seed 7 recommends what a tracker seeded 7 + 104,729 recommends to the
// same joins, and answers each no sooner than the latency
// simnet.PairLatency(7, …) draws for the caller. The callers are peers
// whose seed-7 latency exceeds their seed-1 one by 5 ms, so a tracker on
// the default seed answers measurably sooner.
func TestTrackerElementSeedsAsCluster(t *testing.T) {
	path := writeTrace(t)
	tr := loadTrace(t, path)
	a, b := freeAddr(t), freeAddr(t)
	startNode(t, b, "-role", "tracker", "-trace", path, "-tracker", a+";"+b, "-id", "1", "-seed", "7")
	tc := emu.DefaultTrackerConfig()
	tc.Seed = 7 + 104_729
	ref, err := emu.NewTracker(tc, tr, nil)
	if err == nil {
		err = ref.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	cond := emu.DefaultConditions()
	latency := func(seed int64, from int) time.Duration {
		return simnet.PairLatency(seed, cond.MinLatency, cond.MaxLatency, -1, int64(from))
	}
	var from []int
	for id := 0; len(from) < 8; id++ {
		if latency(7, id) > latency(1, id)+5*time.Millisecond {
			from = append(from, id)
		}
	}
	var sibs []int
	for _, ch := range tr.Channels {
		if ch.Primary == tr.Channels[0].Primary {
			sibs = append(sibs, int(ch.ID))
		}
	}
	for i, id := range from {
		req := emu.Message{Type: emu.MsgJoin, From: id, Addr: fmt.Sprintf("127.0.0.1:%d", 9000+id),
			Channel: sibs[i%len(sibs)], TTL: 1}
		want, _ := exchange(t, ref.Addr(), req)
		got, rtt := exchange(t, b, req)
		if !reflect.DeepEqual(got.Peers, want.Peers) {
			t.Fatalf("join %d: the element recommends %v, a tracker seeded 7 + 104,729 %v", i, got.Peers, want.Peers)
		}
		if rtt < latency(7, id) {
			t.Fatalf("join %d from %d answered in %v, under the seed-7 latency %v", i, id, rtt, latency(7, id))
		}
	}
}

// TestTrackerElementExitsOnSIGTERM: a tracker element sent SIGTERM stops
// its tracker, prints its summary and exits 0.
func TestTrackerElementExitsOnSIGTERM(t *testing.T) {
	path := writeTrace(t)
	addr := freeAddr(t)
	out := signalElement(t, []string{"-role", "tracker", "-trace", path, "-addr", addr},
		func(*syncBuffer) { waitListening(t, addr) })
	if !strings.Contains(out, "tracker served ") {
		t.Fatalf("element printed no summary; output:\n%s", out)
	}
}

// TestPeerElementExitsOnSIGTERM: a peer element sent SIGTERM mid-run stops
// its sessions, prints what it ran and exits 0.
func TestPeerElementExitsOnSIGTERM(t *testing.T) {
	path := writeTrace(t)
	addr := freeAddr(t)
	startNode(t, addr, "-role", "tracker", "-trace", path, "-addr", addr)
	out := signalElement(t, []string{"-role", "peer", "-trace", path, "-tracker", addr,
		"-id", "5", "-sessions", "50", "-videos", "10", "-watch", "100ms"},
		func(out *syncBuffer) {
			for deadline := time.Now().Add(5 * time.Second); !strings.Contains(out.String(), " serve "); time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the peer served nothing; output:\n%s", out)
				}
			}
		})
	if !strings.Contains(out, "peer 5 ") || !strings.Contains(out, " stopped: ") {
		t.Fatalf("element printed no summary; output:\n%s", out)
	}
}

// signalElement re-runs the test binary as the element args, waits for
// ready, sends the element SIGTERM and returns its output once it has
// exited 0.
func signalElement(t *testing.T, args []string, ready func(out *syncBuffer)) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), nodeArgsEnv+"="+strings.Join(args, "\n"))
	out := &syncBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	ready(out)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("element exited with %v; output:\n%s", err, out)
	}
	return out.String()
}
