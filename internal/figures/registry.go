package figures

import (
	"fmt"
	"strings"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/trace"
)

// Group names the inputs a figure reads; a group's name is also a -fig
// value, its All figures.
type Group string

const (
	GroupTrace Group = "trace" // Section III trace analysis: Trace, MinShared
	GroupSim   Group = "sim"   // Section IV models and Section V simulation: Scale, Trace or the sweep fields
	GroupEmu   Group = "emu"   // Section V TCP emulation: Emu, EmuTrace
)

// Inputs is everything a figure may draw on. The CLI fills each group's
// part just before that group's first figure runs.
type Inputs struct {
	// Scale and Trace feed the trace-analysis and simulation figures:
	// workload sizing, seed and tracer, and the one synthetic trace they
	// share. Sweep figures build their own traces and read only
	// Scale.Seed.
	Scale Scale
	Trace *trace.Trace
	// MinShared is Fig. 10's shared-subscriber threshold.
	MinShared int
	// SweepScale names the sweep figures' preset: small or paper. Users,
	// when positive, replaces the preset population; TuneLoad, when
	// non-nil, edits the load sweep's preset before it runs; Progress,
	// when non-nil, receives the sweeps' per-point progress lines.
	SweepScale string
	Users      int
	TuneLoad   func(*LoadSweep) error
	Progress   func(msg string)
	// Emu and EmuTrace feed the emulation figures: the cluster template
	// every emulated run copies (its mode aside) and the trace it runs.
	Emu      emu.ClusterConfig
	EmuTrace *trace.Trace
}

// Figure is one entry of the experiment index: an id the CLI's -fig flag
// accepts, and the run that regenerates it.
type Figure struct {
	ID    string
	Group Group
	// All marks the figures `-fig all` and `-fig <group>` run; the rest —
	// the sweeps, the timeline and the prefetch study, each a run of its
	// own — go by id only.
	All bool
	// Sweep marks the figures that size their own traces from
	// Inputs.SweepScale instead of taking Inputs.Scale and Inputs.Trace.
	Sweep bool
	Run   func(in *Inputs) (*Report, error)
}

// tableFig wraps a single-table figure that cannot fail.
func tableFig(id string, g Group, all bool, fig func(in *Inputs) *Table) Figure {
	return Figure{ID: id, Group: g, All: all, Run: func(in *Inputs) (*Report, error) {
		return &Report{Tables: []*Table{fig(in)}}, nil
	}}
}

func traceFig(id string, fig func(*trace.Trace) *Table) Figure {
	return tableFig(id, GroupTrace, true, func(in *Inputs) *Table { return fig(in.Trace) })
}

// cdfFig is a Section III figure that is the plain CDF of one per-entity
// statistic of the trace.
func cdfFig(id, title, valueName string, values func(*trace.Trace) []float64) Figure {
	return traceFig(id, func(tr *trace.Trace) *Table { return cdfTable(title, valueName, values(tr)) })
}

func simFig(id string, all bool, fig func(Scale, *trace.Trace) (*Report, error)) Figure {
	return Figure{ID: id, Group: GroupSim, All: all, Run: func(in *Inputs) (*Report, error) {
		return fig(in.Scale, in.Trace)
	}}
}

func emuFig(id string, fig func(emu.ClusterConfig, *trace.Trace) (*Report, error)) Figure {
	return Figure{ID: id, Group: GroupEmu, All: true, Run: func(in *Inputs) (*Report, error) {
		return fig(in.Emu, in.EmuTrace)
	}}
}

// registry returns the experiment index, in evaluation order. DESIGN.md §4
// is checked against it by TestDesignIndexMatchesRegistry. It is a function
// rather than a package variable so that a binary using only Scale (the
// bench/ harness) does not link every figure, the emulation included, at
// package init.
func registry() []Figure {
	return []Figure{
		traceFig("2", Fig02),
		cdfFig("3", "Fig. 3 — CDF of channel view frequency (views/day)", "viewsPerDay", (*trace.Trace).ChannelViewFrequencies),
		cdfFig("4", "Fig. 4 — CDF of subscribers per channel", "subscribers", (*trace.Trace).SubscriberCounts),
		traceFig("5", Fig05),
		cdfFig("6", "Fig. 6 — CDF of videos per channel", "videos", (*trace.Trace).VideosPerChannel),
		cdfFig("7", "Fig. 7 — CDF of views per video", "views", (*trace.Trace).ViewsPerVideo),
		traceFig("8", Fig08),
		traceFig("9", Fig09),
		tableFig("10", GroupTrace, true, func(in *Inputs) *Table { return Fig10(in.Trace, in.MinShared) }),
		cdfFig("11", "Fig. 11 — CDF of categories per channel", "categories", (*trace.Trace).InterestsPerChannel),
		cdfFig("12", "Fig. 12 — CDF of interest similarity |Cu∩Cc|/|Cu|", "similarity", (*trace.Trace).InterestSimilarities),
		cdfFig("13", "Fig. 13 — CDF of interests per user", "interests", (*trace.Trace).InterestsPerUser),

		tableFig("table1", GroupSim, true, func(in *Inputs) *Table { return Table1(in.Scale, in.Trace) }),
		tableFig("15", GroupSim, true, func(*Inputs) *Table { return Fig15() }),
		simFig("16a", true, Fig16a),
		simFig("17a", true, Fig17a),
		simFig("18a", true, Fig18a),
		simFig("churn", true, FigChurn),
		simFig("timeline", false, RunTimeline),
		{ID: "scale", Group: GroupSim, Sweep: true, Run: runScaleFigure},
		{ID: "load", Group: GroupSim, Sweep: true, Run: runLoadFigure},
		simFig("prefetch", false, FigPrefetch),

		emuFig("16b", Fig16b), emuFig("17b", Fig17b), emuFig("18b", Fig18b),
		emuFig("outage", FigOutage), emuFig("outage-shard", FigShardedOutage),
		emuFig("takeover", FigTakeover), emuFig("failover", FigFailover),
	}
}

// Resolve maps a -fig value to the figures to run, in registry order:
// "all" is every All figure, a group's name is that group's All figures,
// anything else must be one figure's id.
func Resolve(id string) ([]Figure, error) {
	var out []Figure
	for _, f := range registry() {
		if f.ID == id || f.All && (id == "all" || id == string(f.Group)) {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown figure %q (want %s)", id, idList())
	}
	return out, nil
}

// Help is the -fig flag's usage string.
func Help() string { return "figure to regenerate: " + idList() }

func idList() string {
	var ids []string
	for _, f := range registry() {
		ids = append(ids, f.ID)
	}
	return strings.Join(ids, ", ") + "; a group: trace, sim or emu; or all"
}

// runScaleFigure is -fig scale: the sweep preset named by SweepScale with
// the inputs' seed and population overrides applied.
func runScaleFigure(in *Inputs) (*Report, error) {
	presets := map[string]func() ScaleSweep{"small": SmokeScaleSweep, "paper": DefaultScaleSweep}
	preset, ok := presets[in.SweepScale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want small or paper)", in.SweepScale)
	}
	sw := preset()
	sw.Scale.Seed = in.Scale.Seed
	if in.Users > 0 {
		sw.Sizes = []int{in.Users}
	}
	sw.Progress = in.Progress
	return RunScaleSweep(sw)
}

// runLoadFigure is -fig load: the sweep preset named by SweepScale with
// the inputs' overrides applied.
func runLoadFigure(in *Inputs) (*Report, error) {
	presets := map[string]func() LoadSweep{"small": DefaultLoadSweep, "paper": PaperLoadSweep}
	preset, ok := presets[in.SweepScale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (-fig load wants small or paper)", in.SweepScale)
	}
	sw := preset()
	if in.TuneLoad != nil {
		if err := in.TuneLoad(&sw); err != nil {
			return nil, err
		}
	}
	sw.Scale.Seed = in.Scale.Seed
	if in.Users > 0 {
		sw.Scale.TraceUsers = in.Users
	}
	sw.Progress = in.Progress
	return RunLoad(sw)
}
