// Command socialtube-sim runs the trace-driven simulation evaluation (the
// PeerSim experiments): the sim group of the figure registry
// (internal/figures) — Figs. 15, 16(a), 17(a), 18(a), Table I, churn
// resilience, the telemetry timeline, the scale and load sweeps and the
// §IV-B prefetch study.
//
// Usage:
//
//	socialtube-sim -fig 16a
//	socialtube-sim -fig all -scale paper
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

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

func (lf loadFlags) set() bool {
	return lf.mode != "" || lf.rps != "" || lf.dur != 0 || lf.cap >= 0 || lf.flash >= 0
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-sim:", err)
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

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube-sim", flag.ContinueOnError)
	var lf loadFlags
	var (
		fig        = fs.String("fig", "all", figures.Help(figures.GroupSim))
		scale      = fs.String("scale", "small", "workload scale: small or paper")
		seed       = fs.Int64("seed", 1, "experiment seed")
		users      = fs.Int("users", 0, "with -fig scale or -fig load, replace the preset population with this single size (0 = preset)")
		benchOut   = fs.String("bench-out", "", "append the figure's per-point results to this JSONL file (empty = write nothing)")
		jsonDump   = fs.Bool("json", false, "run the three protocols once and dump raw results as JSON")
		traceOut   = fs.String("trace-out", "", "write every protocol event as JSON Lines to this file")
		tracePrint = fs.String("trace-print", "", "pretty-print an existing JSONL event trace and exit")
		traceSpans = fs.String("trace-spans", "", "pretty-print an existing JSONL event trace grouped by request span and exit")
		traceMax   = fs.Int("trace-max", 0, "with -trace-print/-trace-spans, stop after this many events/spans (0 = all)")
		traceCheck = fs.String("trace-check", "", "validate an existing JSONL event trace against the golden schema and exit")
	)
	fs.StringVar(&lf.mode, "load-mode", "", "with -fig load, the profile shape: steady, ramp, sweep, burst or diurnal (empty = preset)")
	fs.StringVar(&lf.rps, "load-rps", "", "with -fig load, comma-separated offered-RPS columns (empty = preset)")
	fs.DurationVar(&lf.dur, "load-dur", 0, "with -fig load, each column's offered window in virtual time (0 = preset)")
	fs.IntVar(&lf.cap, "load-cap", -1, "with -fig load, the server admission-queue capacity (0 = unbounded, -1 = preset)")
	fs.IntVar(&lf.flash, "load-flash", -1, "with -fig load, layer a flash crowd on this channel id (-1 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on nonsensical counts before any trace is built.
	if *users < 0 {
		return fmt.Errorf("-users must be ≥ 0, got %d", *users)
	}
	switch {
	case *traceCheck != "":
		return checkTrace(*traceCheck)
	case *tracePrint != "":
		return prettyTrace(*tracePrint, "events", *traceMax, obs.Pretty)
	case *traceSpans != "":
		return prettyTrace(*traceSpans, "spans", *traceMax, obs.PrettySpans)
	}
	figs, err := figures.Resolve(figures.GroupSim, *fig)
	if err != nil {
		return err
	}
	in := &figures.Inputs{
		SweepScale: *scale,
		Users:      *users,
		TuneLoad:   lf.tune,
		Progress:   func(msg string) { fmt.Println("# " + msg) },
	}
	in.Scale.Seed = *seed
	// The sweeps build their own traces (one per population or column
	// set), so they skip the shared trace and its banner, and with it the
	// event trace and the raw dump that run over that trace.
	if figs[0].Sweep && (*traceOut != "" || *jsonDump) {
		return fmt.Errorf("-trace-out and -json do not apply to -fig %s", *fig)
	}
	if !figs[0].Sweep {
		if *users > 0 {
			return fmt.Errorf("-users applies to -fig scale and -fig load only")
		}
		if lf.set() {
			return fmt.Errorf("-load-* flags apply to -fig load only")
		}
		if in.Scale, err = figures.ScalePreset(*scale); err != nil {
			return err
		}
		in.Scale.Seed = *seed
		if in.Trace, err = in.Scale.BuildTrace(); err != nil {
			return err
		}
		fmt.Printf("trace: %d channels, %d videos, %d users (scale %s, seed %d)\n\n",
			len(in.Trace.Channels), len(in.Trace.Videos), len(in.Trace.Users), *scale, *seed)

		if *traceOut != "" {
			j, err := obs.OpenJSONL(*traceOut)
			if err != nil {
				return err
			}
			in.Scale.Tracer = j
			defer j.Finish(*traceOut, &retErr)
		}
		if *jsonDump {
			return dumpJSON(in.Scale, in.Trace)
		}
	}
	for _, f := range figs {
		if err := f.Show(in, *benchOut); err != nil {
			return err
		}
	}
	return nil
}
