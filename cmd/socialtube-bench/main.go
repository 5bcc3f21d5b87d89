// Command socialtube-bench regenerates every table and figure of the
// paper's evaluation in one run — a loop over the figure registry
// (internal/figures): the Section III trace analysis (Figs. 2–13), the
// analytical models (Fig. 15, §IV-B), the simulation evaluation (Figs.
// 16a/17a/18a, Table I, churn resilience, timeline, load and scale sweeps
// at smoke sizes) and the TCP emulation (Figs. 16b/17b/18b and the
// outage, sharded-outage, takeover and failover figures).
//
// Usage:
//
//	socialtube-bench                 # small scale, seconds
//	socialtube-bench -scale paper    # Table I scale, minutes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-bench:", err)
		os.Exit(1)
	}
}

// sections titles each registry group in the report.
var sections = map[figures.Group]string{
	figures.GroupTrace: "Section III: trace analysis",
	figures.GroupSim:   "Sections IV–V: analytical models and trace-driven simulation (sweeps at smoke sizes)",
	figures.GroupEmu:   "Section V: TCP emulation (PlanetLab substitute)",
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("socialtube-bench", flag.ContinueOnError)
	var (
		scale     = fs.String("scale", "small", "workload scale: small or paper")
		seed      = fs.Int64("seed", 1, "experiment seed")
		skipEmu   = fs.Bool("skip-emu", false, "skip the TCP emulation figures")
		skipScale = fs.Bool("skip-scale", false, "skip the small-N scalability sweep")
		skipLoad  = fs.Bool("skip-load", false, "skip the open-loop load sweep")
		shards    = fs.Int("shards", 0, "run the scale and load sweeps over the category partition (one loop per interest community) with this many workers (0 = the whole trace on one loop)")
		benchOut  = fs.String("bench-out", "", "append every figure's per-point results to this JSONL file (empty = write nothing)")
		traceOut  = fs.String("trace-out", "", "write simulation protocol events as JSON Lines to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0, got %d", *shards)
	}
	s, err := figures.ScalePreset(*scale)
	if err != nil {
		return err
	}
	s.Seed = *seed
	if *traceOut != "" {
		j, err := obs.OpenJSONL(*traceOut)
		if err != nil {
			return err
		}
		s.Tracer = j
		defer j.Finish(*traceOut, &retErr)
	}

	begin := time.Now()
	tr, err := s.BuildTrace()
	if err != nil {
		return err
	}
	fmt.Printf("== SocialTube full evaluation (scale %s, seed %d) ==\n", *scale, *seed)
	fmt.Printf("trace: %d channels, %d videos, %d users\n\n", len(tr.Channels), len(tr.Videos), len(tr.Users))

	es := figures.SmallEmuScale()
	es.Seed = *seed
	etr, err := es.EmuTrace()
	if err != nil {
		return err
	}
	// The sweeps always run at smoke sizes here: the full arcs are
	// socialtube-sim -fig scale / -fig load territory.
	in := &figures.Inputs{
		Scale: s, Trace: tr, MinShared: 3,
		SweepScale: "small", Shards: *shards,
		TuneLoad: func(sw *figures.LoadSweep) error { *sw = figures.SmokeLoadSweep(); return nil },
		Emu:      es, EmuTrace: etr,
	}
	skip := map[string]bool{"scale": *skipScale, "load": *skipLoad}
	for _, g := range figures.Groups {
		if g == figures.GroupEmu && *skipEmu {
			continue
		}
		fmt.Printf("---- %s ----\n", sections[g])
		for _, f := range figures.Figures(g) {
			if skip[f.ID] {
				continue
			}
			if err := f.Show(in, *benchOut); err != nil {
				return err
			}
		}
	}
	fmt.Printf("total wall time: %v\n", time.Since(begin).Round(time.Millisecond))
	return nil
}
