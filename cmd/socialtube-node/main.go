// Command socialtube-node runs one real SocialTube network element — a
// tracker replica or a peer — so a cluster can be spread across real
// machines, PlanetLab-style. All elements must share the same trace file
// (generate one with `socialtube-trace -save trace.json`).
//
// Usage:
//
//	socialtube-node -role tracker -trace trace.json -addr :7070
//	socialtube-node -role peer -trace trace.json -tracker host:7070 \
//	    -id 7 -sessions 3 -videos 10
//
// A sharded, replicated control plane is a -tracker spec listing every
// tracker endpoint, shards separated by ';' and a shard's replicas by ','.
// Every element takes the same spec and -ring-seed; a tracker also takes
// -id, its endpoint's index counted shard-major:
//
//	socialtube-node -role tracker -trace trace.json -ring-seed 1 -id 2 \
//	    -tracker 'hostA:7070,hostB:7070;hostC:7070,hostD:7070'
//	socialtube-node -role peer -trace trace.json -ring-seed 1 -id 7 \
//	    -tracker 'hostA:7070,hostB:7070;hostC:7070,hostD:7070'
//
// Both roles build one emu.ClusterConfig from the same flags, so -seed
// seeds a node plane's trackers, link conditions and workload as
// socialtube-emu seeds its cluster. SIGINT or SIGTERM stops an element
// cleanly: it prints its summary and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// stdout receives everything the node prints.
var stdout io.Writer = os.Stdout

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-node:", err)
		os.Exit(1)
	}
}

// run executes the node until its work completes or ctx is done: a peer
// stops its sessions and reports what it ran, a tracker (which otherwise
// serves forever) stops serving.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("socialtube-node", flag.ContinueOnError)
	var (
		role      = fs.String("role", "", "tracker or peer")
		tracePath = fs.String("trace", "", "path to the shared trace JSON (see socialtube-trace -save)")
		addr      = fs.String("addr", "127.0.0.1:0", "listen address (a peer, or a tracker without -tracker)")
		spec      = fs.String("tracker", "", "tracker endpoints: shards separated by ';', a shard's replicas by ',' (one address = a 1x1 plane: one tracker); a tracker listens on endpoint -id")
		ringSeed  = fs.Int64("ring-seed", 0, "channel->shard ring seed; every element of a plane must agree")
		id        = fs.Int("id", 0, "a peer's user id in the trace; a tracker's endpoint index in -tracker, shard-major")
		mode      = fs.String("mode", "socialtube", "protocol: socialtube, nettube or pavod")
		sessions  = fs.Int("sessions", 1, "sessions to run before exiting (peer role)")
		videos    = fs.Int("videos", 10, "videos per session (peer role)")
		watch     = fs.Duration("watch", 500*time.Millisecond, "emulated playback per video, and the mean off-time between sessions (peer role)")
		seed      = fs.Int64("seed", 1, "run seed: workload, tracker recommendations and link conditions")
		metrics   = fs.String("metrics", "", "serve live node metrics on this address (e.g. 127.0.0.1:8080)")
		pprof     = fs.Bool("pprof", false, "with -metrics, also mount net/http/pprof on the metrics listener")
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

	if *spec == "" {
		if *role == "peer" {
			return fmt.Errorf("-tracker is required for the peer role")
		}
		*spec = *addr // the 1x1 plane
	}
	plane, err := parsePlaneSpec(*spec, *ringSeed)
	if err != nil {
		return err
	}
	m, ok := modes[*mode]
	if !ok {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	cfg := emu.NewClusterConfig(m, *sessions, *videos, *watch, *seed)
	cfg.Peer.Addr, cfg.Tracer = *addr, printer{}
	cfg.MetricsAddr, cfg.PprofEnabled = *metrics, *pprof
	cfg.OnMetricsAddr = func(a string) { fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", a) }
	switch *role {
	case "tracker":
		tk, err := emu.StartReplica(plane, *id, cfg, tr)
		if err != nil {
			return err
		}
		defer tk.Stop()
		if cfg.MetricsAddr != "" {
			srv, err := tk.ServeMetrics(cfg.MetricsAddr, cfg.PprofEnabled)
			if err != nil {
				return err
			}
			defer srv.Close()
			cfg.OnMetricsAddr(srv.Addr())
		}
		fmt.Fprintf(stdout, "tracker %d of a %d-shard plane serving %d videos on %s\n", *id, plane.NumShards(), len(tr.Videos), tk.Addr())
		<-ctx.Done()
		fmt.Fprintf(stdout, "tracker served %d bytes\n", tk.ServedBytes())
		return nil
	case "peer":
		res, err := emu.RunPeer(ctx, cfg, tr, plane, *id)
		if res == nil {
			return err
		}
		end := "done"
		if err != nil {
			end = "stopped"
		}
		fmt.Fprintf(stdout, "peer %d (%s) %s: %d requests (cache %d / peer %d / server %d), uploaded %d bytes\n",
			*id, m, end, res.Delivered(), res.CacheHits.Value(), res.PeerHits.Value(), res.ServerHits.Value(), res.PeerBytes)
		return nil
	default:
		return fmt.Errorf("unknown role %q (want tracker or peer)", *role)
	}
}

// modes names each protocol -mode selects.
var modes = map[string]emu.Mode{"socialtube": emu.ModeSocialTube, "nettube": emu.ModeNetTube, "pavod": emu.ModePAVoD}

// parsePlaneSpec turns a -tracker spec into a routing-only control plane:
// shards are separated by ';', a shard's replicas by ','. A single bare
// address yields the 1x1 plane. Empty segments are kept, so the plane
// refuses a spec with an empty shard or address.
func parsePlaneSpec(spec string, ringSeed int64) (*emu.ControlPlane, error) {
	var replicas [][]string
	for _, shard := range strings.Split(spec, ";") {
		var reps []string
		for _, a := range strings.Split(shard, ",") {
			reps = append(reps, strings.TrimSpace(a))
		}
		replicas = append(replicas, reps)
	}
	cp, err := emu.NewControlPlaneClient(ringSeed, replicas)
	if err != nil {
		return nil, fmt.Errorf("-tracker %q: %w", spec, err)
	}
	return cp, nil
}

// printer writes the session driver's events, one line each.
type printer struct{}

func (printer) Emit(ev obs.Event) { fmt.Fprintln(stdout, ev) }
