// Command socialtube-emu runs the real-network TCP emulation (the PlanetLab
// experiments): the emu group of the figure registry (internal/figures) —
// Figs. 16(b), 17(b), 18(b) and the outage, sharded-outage, takeover and
// failover resilience comparisons. Every peer is a real TCP node on
// loopback with injected WAN latency and loss.
//
// Usage:
//
//	socialtube-emu -fig 16b -peers 40
//	socialtube-emu -fig all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-emu:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube-emu", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", figures.Help(figures.GroupEmu))
		benchOut = fs.String("bench-out", "", "append the figure's per-point results to this JSONL file (empty = write nothing)")
		peers    = fs.Int("peers", 24, "number of TCP peers")
		sessions = fs.Int("sessions", 2, "sessions per peer")
		videos   = fs.Int("videos", 6, "videos per session")
		watch    = fs.Duration("watch", 25*time.Millisecond, "emulated playback per video")
		seed     = fs.Int64("seed", 1, "experiment seed")
		metrics  = fs.String("metrics", "", "serve live cluster metrics on this address while each run is in flight (e.g. 127.0.0.1:8080; append ?format=prom for Prometheus exposition)")
		pprof    = fs.Bool("pprof", false, "with -metrics, also mount net/http/pprof on the metrics listener")
		traceOut = fs.String("trace-out", "", "write every emulated run's events as JSON Lines to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on nonsensical counts before any cluster is spun up.
	switch {
	case *peers <= 0:
		return fmt.Errorf("-peers must be > 0, got %d", *peers)
	case *sessions <= 0:
		return fmt.Errorf("-sessions must be > 0, got %d", *sessions)
	case *videos <= 0:
		return fmt.Errorf("-videos must be > 0, got %d", *videos)
	case *watch <= 0:
		return fmt.Errorf("-watch must be > 0, got %v", *watch)
	}
	figs, err := figures.Resolve(figures.GroupEmu, *fig)
	if err != nil {
		return err
	}
	cfg := emu.NewClusterConfig(emu.ModeSocialTube, *sessions, *videos, *watch, *seed)
	cfg.Peers = *peers
	cfg.MetricsAddr, cfg.PprofEnabled = *metrics, *pprof
	cfg.OnMetricsAddr = func(addr string) { fmt.Printf("# live metrics: http://%s/metrics\n", addr) }
	if *traceOut != "" {
		j, err := obs.OpenJSONL(*traceOut)
		if err != nil {
			return err
		}
		cfg.Tracer = j
		defer j.Finish(*traceOut, &retErr)
	}
	tr, err := figures.EmuTrace(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("emulation: %d TCP peers, %d sessions x %d videos over %d channels\n\n",
		cfg.Peers, cfg.Sessions, cfg.VideosPerSession, len(tr.Channels))

	in := &figures.Inputs{Emu: cfg, EmuTrace: tr}
	for _, f := range figs {
		if err := f.Show(in, *benchOut); err != nil {
			return err
		}
	}
	return nil
}
