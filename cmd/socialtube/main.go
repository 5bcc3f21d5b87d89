// Command socialtube regenerates the paper's evaluation, one figure
// registry (internal/figures) in evaluation order: the Section III trace
// analysis (Figs. 2–13), the trace-driven simulation (the PeerSim runs:
// Table I, Figs. 15–18(a), churn resilience, the telemetry timeline, the
// scale and load sweeps and the §IV-B prefetch study) and the real-network
// TCP emulation (the PlanetLab runs: Figs. 16–18(b) and the outage,
// takeover and failover comparisons).
//
// Usage:
//
//	socialtube -fig all
//	socialtube -fig sim -scale paper
//	socialtube -fig 9 -channels 545 -users 2000
//	socialtube -fig 16b -peers 40
//	socialtube -fig trace -save trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// loadFlags carries the -fig load knobs from the flag set to the sweep.
type loadFlags struct {
	mode  string
	rps   string
	dur   time.Duration
	cap   int
	flash int
}

// tune applies the -load-* overrides to the load sweep's preset.
func (lf loadFlags) tune(sw *figures.LoadSweep) error {
	if lf.mode != "" {
		sw.Mode = load.Mode(lf.mode)
	}
	if lf.rps != "" {
		sw.RPS = sw.RPS[:0]
		for _, col := range strings.Split(lf.rps, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(col), 64)
			if err != nil {
				return fmt.Errorf("-load-rps %q: %w", lf.rps, err)
			}
			sw.RPS = append(sw.RPS, v)
		}
	}
	if lf.dur > 0 {
		sw.Duration = lf.dur
	}
	if lf.cap >= 0 {
		sw.QueueCap = lf.cap
	}
	if lf.flash >= 0 {
		sw.Flash = &load.FlashCrowd{Channel: lf.flash, At: sw.Duration / 4, For: sw.Duration / 4}
	}
	return nil
}

// dumpJSON runs the three protocols through the standard workload and
// prints one JSON object with their raw result summaries.
func dumpJSON(s figures.Scale, tr *trace.Trace) error {
	results, err := figures.RunAllProtocols(s, tr)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// saveTrace writes the trace as the chunked JSONL stream socialtube-node
// -trace reads.
func saveTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.SaveStream(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("saved trace to %s\n", path)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube:", err)
		os.Exit(1)
	}
}

// checkTrace validates a JSONL event trace against the golden schema and
// prints the per-kind event counts (the -trace-check path CI runs against
// a freshly generated trace).
func checkTrace(path string) error {
	schema, err := obs.GoldenSchema()
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	counts, err := schema.ValidateJSONL(f)
	if err != nil {
		return err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return fmt.Errorf("%s: trace is empty", path)
	}
	fmt.Printf("%s: %d events valid against the golden schema %v\n", path, total, counts)
	return nil
}

// prettyTrace pretty-prints an existing JSONL event trace, flat or
// grouped by request span, and reports how many units it printed.
func prettyTrace(path, unit string, max int, pretty func(io.Reader, io.Writer, int) (int, error)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := pretty(f, os.Stdout, max)
	if err != nil {
		return err
	}
	fmt.Printf("# %d %s\n", n, unit)
	return nil
}

// Which figures read a flag that only some read: the Section III trace
// figures, the simulation figures that share one preset trace, the
// sweeps, the load sweep alone, and the emulation figures.
var (
	isTrace  = func(f figures.Figure) bool { return f.Group == figures.GroupTrace }
	isShared = func(f figures.Figure) bool { return f.Group == figures.GroupSim && !f.Sweep }
	isSim    = func(f figures.Figure) bool { return f.Group == figures.GroupSim }
	isLoad   = func(f figures.Figure) bool { return f.ID == "load" }
	isEmu    = func(f figures.Figure) bool { return f.Group == figures.GroupEmu }
)

// modes maps each flag that runs instead of the figures to the other
// flags it reads; any other flag given with it is refused, not dropped.
var modes = map[string][]string{
	"json":        {"seed", "scale", "trace-out"},
	"trace-check": nil,
	"trace-print": {"trace-max"},
	"trace-spans": {"trace-max"},
}

// readers maps each such flag to the figures that read it; a flag given
// while no resolved figure reads it is refused, not dropped. The flags
// absent here apply to every figure or select a mode of their own.
var readers = map[string]func(figures.Figure) bool{
	"channels": isTrace, "categories": isTrace, "minshared": isTrace, "save": isTrace, "crawl": isTrace,
	"users":     func(f figures.Figure) bool { return isTrace(f) || f.Sweep },
	"scale":     isSim,
	"trace-out": func(f figures.Figure) bool { return isShared(f) || isEmu(f) },
	"trace-max": func(figures.Figure) bool { return false },
	"load-mode": isLoad, "load-rps": isLoad, "load-dur": isLoad, "load-cap": isLoad, "load-flash": isLoad,
	"peers": isEmu, "sessions": isEmu, "videos": isEmu, "watch": isEmu, "metrics": isEmu, "pprof": isEmu,
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube", flag.ContinueOnError)
	var lf loadFlags
	var (
		fig        = fs.String("fig", "all", figures.Help())
		seed       = fs.Int64("seed", 1, "seed of every trace and run")
		users      = fs.Int("users", 0, "users in the trace a figure generates: the Section III trace's (0 = 2000), or with -fig scale or -fig load the single population replacing the preset (0 = preset); the sim figures that share one trace refuse it")
		benchOut   = fs.String("bench-out", "", "append each figure's per-point results to this JSONL file (empty = write nothing)")
		traceOut   = fs.String("trace-out", "", "write every simulated and emulated protocol event as JSON Lines to this file")
		csv        = fs.Bool("csv", false, "emit figures as CSV instead of aligned tables")
		channels   = fs.Int("channels", 545, "channels in the Section III trace")
		cats       = fs.Int("categories", 18, "interest categories in the Section III trace")
		minShared  = fs.Int("minshared", 3, "shared-subscriber threshold for fig 10")
		save       = fs.String("save", "", "write the Section III trace to this file (the chunked JSONL stream socialtube-node -trace reads)")
		crawl      = fs.Int("crawl", 0, "BFS-crawl this many users from the generated network first (the paper's Section III sampling methodology)")
		scale      = fs.String("scale", "small", "simulation workload scale: small or paper")
		jsonDump   = fs.Bool("json", false, "run the three protocols once over the shared sim trace and dump raw results as JSON (reads only -seed, -scale and -trace-out)")
		tracePrint = fs.String("trace-print", "", "pretty-print an existing JSONL event trace and exit")
		traceSpans = fs.String("trace-spans", "", "pretty-print an existing JSONL event trace grouped by request span and exit")
		traceMax   = fs.Int("trace-max", 0, "with -trace-print/-trace-spans, stop after this many events/spans (0 = all)")
		traceCheck = fs.String("trace-check", "", "validate an existing JSONL event trace against the golden schema and exit")
		peers      = fs.Int("peers", 24, "number of TCP peers")
		sessions   = fs.Int("sessions", 2, "sessions per peer")
		videos     = fs.Int("videos", 6, "videos per session")
		watch      = fs.Duration("watch", 25*time.Millisecond, "emulated playback per video")
		metrics    = fs.String("metrics", "", "serve live cluster metrics on this address while each run is in flight (e.g. 127.0.0.1:8080; append ?format=prom for Prometheus exposition)")
		pprof      = fs.Bool("pprof", false, "with -metrics, also mount net/http/pprof on the metrics listener")
	)
	fs.StringVar(&lf.mode, "load-mode", "", "with -fig load, the profile shape: steady, ramp, sweep, burst or diurnal (empty = preset)")
	fs.StringVar(&lf.rps, "load-rps", "", "with -fig load, comma-separated offered-RPS columns (empty = preset)")
	fs.DurationVar(&lf.dur, "load-dur", 0, "with -fig load, each column's offered window in virtual time (0 = preset)")
	fs.IntVar(&lf.cap, "load-cap", -1, "with -fig load, the server admission-queue capacity (0 = unbounded, -1 = preset)")
	fs.IntVar(&lf.flash, "load-flash", -1, "with -fig load, layer a flash crowd on this channel id (-1 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every refusal happens here, before any trace is built or figure
	// printed.
	var set []string
	mode := ""
	fs.Visit(func(fl *flag.Flag) {
		set = append(set, fl.Name)
		if _, ok := modes[fl.Name]; ok && mode == "" && fl.Value.String() != fl.DefValue {
			mode = fl.Name
		}
	})
	for _, name := range set {
		if mode != "" && name != mode && !slices.Contains(modes[mode], name) {
			return fmt.Errorf("-%s does not apply to -%s", name, mode)
		}
	}
	switch {
	case *users < 0:
		return fmt.Errorf("-users must be ≥ 0, got %d", *users)
	case *peers <= 0:
		return fmt.Errorf("-peers must be > 0, got %d", *peers)
	case *sessions <= 0:
		return fmt.Errorf("-sessions must be > 0, got %d", *sessions)
	case *videos <= 0:
		return fmt.Errorf("-videos must be > 0, got %d", *videos)
	case *watch <= 0:
		return fmt.Errorf("-watch must be > 0, got %v", *watch)
	case *traceCheck != "":
		return checkTrace(*traceCheck)
	case *tracePrint != "":
		return prettyTrace(*tracePrint, "events", *traceMax, obs.Pretty)
	case *traceSpans != "":
		return prettyTrace(*traceSpans, "spans", *traceMax, obs.PrettySpans)
	}
	figs, err := figures.Resolve(*fig)
	if err != nil {
		return err
	}
	fs.Visit(func(fl *flag.Flag) {
		if reads, ok := readers[fl.Name]; ok && err == nil && !slices.ContainsFunc(figs, reads) {
			err = fmt.Errorf("-%s does not apply to -fig %s", fl.Name, *fig)
		}
	})
	if err != nil {
		return err
	}
	if *users > 0 && slices.ContainsFunc(figs, isShared) {
		return fmt.Errorf("-users does not apply to -fig %s: its sim figures share one preset trace", *fig)
	}
	in := &figures.Inputs{
		MinShared:  *minShared,
		SweepScale: *scale,
		Users:      *users,
		TuneLoad:   lf.tune,
		Progress:   func(msg string) { fmt.Println("# " + msg) },
		Emu:        emu.NewClusterConfig(emu.ModeSocialTube, *sessions, *videos, *watch, *seed),
	}
	if in.Scale, err = figures.ScalePreset(*scale); err != nil {
		return err
	}
	in.Scale.Seed = *seed
	in.Emu.Peers = *peers
	in.Emu.MetricsAddr, in.Emu.PprofEnabled = *metrics, *pprof
	in.Emu.OnMetricsAddr = func(addr string) { fmt.Printf("# live metrics: http://%s/metrics\n", addr) }
	if *traceOut != "" {
		j, err := obs.OpenJSONL(*traceOut)
		if err != nil {
			return err
		}
		in.Scale.Tracer, in.Emu.Tracer = j, j
		defer j.Finish(*traceOut, &retErr)
	}

	// Each group's inputs are built, banner first, just before the
	// group's first figure runs; the sweeps build their own traces.
	setup := map[figures.Group]func() error{
		figures.GroupTrace: func() error {
			n := *users
			if n == 0 {
				n = 2000
			}
			tr, err := figures.Scale{TraceChannels: *channels, TraceUsers: n, Categories: *cats, Seed: *seed}.BuildTrace()
			if err != nil {
				return err
			}
			if *crawl > 0 {
				if tr, err = trace.Crawl(tr, *seed, *crawl); err != nil {
					return err
				}
				fmt.Printf("BFS crawl sampled %d users (mean degree %.2f)\n", len(tr.Users), tr.MeanDegree())
			}
			s := tr.Summarize()
			fmt.Printf("trace: %d channels, %d videos, %d users, %d categories (seed %d)\n\n",
				s.Channels, s.Videos, s.Users, s.Categories, *seed)
			in.Trace = tr
			if *save != "" {
				return saveTrace(*save, tr)
			}
			return nil
		},
		figures.GroupSim: func() (err error) {
			if in.Trace, err = in.Scale.BuildTrace(); err != nil {
				return err
			}
			fmt.Printf("trace: %d channels, %d videos, %d users (scale %s, seed %d)\n\n",
				len(in.Trace.Channels), len(in.Trace.Videos), len(in.Trace.Users), *scale, *seed)
			return nil
		},
		figures.GroupEmu: func() (err error) {
			if in.EmuTrace, err = figures.EmuTrace(in.Emu); err != nil {
				return err
			}
			fmt.Printf("emulation: %d TCP peers, %d sessions x %d videos over %d channels\n\n",
				in.Emu.Peers, in.Emu.Sessions, in.Emu.VideosPerSession, len(in.EmuTrace.Channels))
			return nil
		},
	}
	if *jsonDump {
		if err := setup[figures.GroupSim](); err != nil {
			return err
		}
		return dumpJSON(in.Scale, in.Trace)
	}
	for _, f := range figs {
		if build, ok := setup[f.Group]; ok && !f.Sweep {
			delete(setup, f.Group)
			if err := build(); err != nil {
				return err
			}
		}
		if err := f.Show(in, *benchOut, *csv); err != nil {
			return err
		}
	}
	return nil
}
