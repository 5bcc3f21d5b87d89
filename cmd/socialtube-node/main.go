// Command socialtube-node runs one real SocialTube network element — the
// tracker (central server) or a peer — so a cluster can be spread across
// real machines, PlanetLab-style. All elements must share the same trace
// file (generate one with `socialtube-trace -save trace.json`).
//
// Usage:
//
//	socialtube-node -role tracker -trace trace.json -addr :7070
//	socialtube-node -role peer -trace trace.json -tracker host:7070 \
//	    -id 7 -sessions 3 -videos 10
//
// A sharded, replicated control plane is a -tracker spec listing every
// tracker endpoint, shards separated by ';' and a shard's replicas by ','
// (all elements must agree on -ring-seed):
//
//	socialtube-node -role peer -trace trace.json -ring-seed 1 \
//	    -tracker 'hostA:7070,hostB:7070;hostC:7070,hostD:7070'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

func main() {
	if err := run(os.Args[1:], make(chan struct{})); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-node:", err)
		os.Exit(1)
	}
}

// run executes the node until its work completes or stop closes (stop only
// applies to the tracker role, which otherwise serves forever).
func run(args []string, stop chan struct{}) error {
	fs := flag.NewFlagSet("socialtube-node", flag.ContinueOnError)
	var (
		role        = fs.String("role", "", "tracker or peer")
		tracePath   = fs.String("trace", "", "path to the shared trace JSON (see socialtube-trace -save)")
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		trackerAddr = fs.String("tracker", "", "tracker endpoints (peer role): shards separated by ';', a shard's replicas by ',' (one address = a 1x1 plane: one tracker)")
		ringSeed    = fs.Int64("ring-seed", 0, "channel->shard ring seed; must match on every peer of a sharded plane (peer role)")
		id          = fs.Int("id", 0, "peer id — the user id this peer plays (peer role)")
		mode        = fs.String("mode", "socialtube", "protocol: socialtube, nettube or pavod")
		sessions    = fs.Int("sessions", 1, "sessions to run before exiting (peer role)")
		videos      = fs.Int("videos", 10, "videos per session (peer role)")
		watch       = fs.Duration("watch", 500*time.Millisecond, "emulated playback per video (peer role)")
		seed        = fs.Int64("seed", 1, "workload seed (peer role)")
		metrics     = fs.String("metrics", "", "serve live node metrics on this address (e.g. 127.0.0.1:8080)")
		pprof       = fs.Bool("pprof", false, "with -metrics, also mount net/http/pprof on the metrics listener")
		replicas    = fs.String("replicas", "", "comma-separated addresses of every replica of this tracker's shard, in shard order, this one included (tracker role; empty = unreplicated)")
		replicaSelf = fs.Int("replica-self", 0, "this tracker's index within -replicas (tracker role)")
		shard       = fs.Int("shard", 0, "this tracker's shard index, for the gossip seed (tracker role)")
		gossipEvery = fs.Duration("gossip-interval", 200*time.Millisecond, "anti-entropy period between shard replicas (tracker role, with -replicas)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on nonsensical counts before the trace is loaded.
	switch {
	case *sessions <= 0:
		return fmt.Errorf("-sessions must be > 0, got %d", *sessions)
	case *videos <= 0:
		return fmt.Errorf("-videos must be > 0, got %d", *videos)
	case *watch <= 0:
		return fmt.Errorf("-watch must be > 0, got %v", *watch)
	case *id < 0:
		return fmt.Errorf("-id must be ≥ 0, got %d", *id)
	case *shard < 0:
		return fmt.Errorf("-shard must be ≥ 0, got %d", *shard)
	case *replicaSelf < 0:
		return fmt.Errorf("-replica-self must be ≥ 0, got %d", *replicaSelf)
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.LoadStream(f)
	f.Close()
	if err != nil {
		return err
	}

	switch *role {
	case "tracker":
		return runTracker(tr, *addr, *metrics, *pprof, *replicas, *replicaSelf, *shard, *ringSeed, *gossipEvery, stop)
	case "peer":
		return runPeer(tr, *addr, *trackerAddr, *ringSeed, *id, *mode, *sessions, *videos, *watch, *seed, *metrics, *pprof)
	default:
		return fmt.Errorf("unknown role %q (want tracker or peer)", *role)
	}
}

func runTracker(tr *trace.Trace, addr, metricsAddr string, pprof bool, replicaSpec string, replicaSelf, shard int, ringSeed int64, gossipEvery time.Duration, stop chan struct{}) error {
	cfg := emu.DefaultTrackerConfig()
	cfg.Addr = addr
	tk, err := emu.NewTracker(cfg, tr, emu.DefaultConditions())
	if err != nil {
		return err
	}
	if err := tk.Start(); err != nil {
		return err
	}
	defer tk.Stop()
	if replicaSpec != "" {
		var reps []string
		for _, a := range strings.Split(replicaSpec, ",") {
			if a = strings.TrimSpace(a); a != "" {
				reps = append(reps, a)
			}
		}
		if replicaSelf < 0 || replicaSelf >= len(reps) {
			return fmt.Errorf("-replica-self %d outside -replicas (%d entries)", replicaSelf, len(reps))
		}
		// The node CLI only knows its own shard's replica list, so it runs a
		// single-shard plane view (no cross-shard liveness) with the seed
		// pre-mixed the way StartControlPlane would for this shard index —
		// mixed in-process/cross-machine planes rotate partners alike.
		tk.StartGossip(ringSeed+int64(shard)*7919, [][]string{reps}, 0, replicaSelf, gossipEvery, 0)
		fmt.Printf("gossiping as replica %d of shard %d with %v every %v\n", replicaSelf, shard, reps, gossipEvery)
	}
	if metricsAddr != "" {
		srv, err := tk.ServeMetrics(metricsAddr, pprof)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	}
	fmt.Printf("tracker serving %d videos on %s\n", len(tr.Videos), tk.Addr())
	<-stop
	fmt.Printf("tracker served %d bytes\n", tk.ServedBytes())
	return nil
}

func parseMode(mode string) (emu.Mode, error) {
	switch mode {
	case "socialtube":
		return emu.ModeSocialTube, nil
	case "nettube":
		return emu.ModeNetTube, nil
	case "pavod":
		return emu.ModePAVoD, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", mode)
	}
}

// parsePlaneSpec turns a -tracker spec into a routing-only control plane:
// shards are separated by ';', a shard's replicas by ','. A single bare
// address yields the 1x1 plane.
func parsePlaneSpec(spec string, ringSeed int64) (*emu.ControlPlane, error) {
	var replicas [][]string
	for _, shard := range strings.Split(spec, ";") {
		var reps []string
		for _, a := range strings.Split(shard, ",") {
			if a = strings.TrimSpace(a); a != "" {
				reps = append(reps, a)
			}
		}
		if len(reps) > 0 {
			replicas = append(replicas, reps)
		}
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("-tracker spec %q names no endpoints", spec)
	}
	return emu.NewControlPlaneClient(ringSeed, replicas)
}

func runPeer(tr *trace.Trace, addr, trackerAddr string, ringSeed int64, id int, modeName string, sessions, videos int, watch time.Duration, seed int64, metricsAddr string, pprof bool) error {
	if trackerAddr == "" {
		return fmt.Errorf("-tracker is required for the peer role")
	}
	if tr.User(trace.UserID(id)) == nil {
		return fmt.Errorf("peer id %d is not a user of the trace (0..%d)", id, len(tr.Users)-1)
	}
	mode, err := parseMode(modeName)
	if err != nil {
		return err
	}
	cp, err := parsePlaneSpec(trackerAddr, ringSeed)
	if err != nil {
		return err
	}
	cfg := emu.DefaultPeerConfig(id, mode)
	cfg.Addr = addr
	p, err := emu.NewPeerWithControlPlane(cfg, tr, cp, emu.DefaultConditions())
	if err != nil {
		return err
	}
	if err := p.Start(); err != nil {
		return err
	}
	defer p.Stop()
	if metricsAddr != "" {
		srv, err := obs.ServeMetrics(metricsAddr, func() any {
			return struct {
				Peer        int    `json:"peer"`
				Mode        string `json:"mode"`
				Links       int    `json:"links"`
				CachedVideo int    `json:"cachedVideos"`
				ServedBytes int64  `json:"servedBytes"`
			}{id, mode.String(), p.Links(), p.CacheLen(), p.ServedBytes()}
		}, nil, pprof)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	}
	fmt.Printf("peer %d (%s) on %s, tracker %s\n", id, mode, p.Addr(), trackerAddr)

	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		return err
	}
	g := dist.NewRNG(seed + int64(id))
	user := &tr.Users[id]
	for s := 0; s < sessions; s++ {
		p.SetOnline(true)
		plan := picker.PlanSession(g, user, videos, watch)
		for _, v := range plan.Videos {
			rec := p.RequestVideo(v)
			fmt.Printf("session %d: video %d from %s in %v (links %d, msgs %d)\n",
				s+1, v, rec.Source, rec.Startup.Round(time.Millisecond), p.Links(), rec.Messages)
			time.Sleep(watch)
			p.FinishVideo(v)
		}
		p.SetOnline(false)
		p.LeaveOverlays()
	}
	fmt.Printf("peer %d done: cached %d videos, uploaded %d bytes\n", id, p.CacheLen(), p.ServedBytes())
	return nil
}
