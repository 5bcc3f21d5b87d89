package figures

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Report is what every figure produces: the tables it prints, in order,
// and — for the figures that feed a bench log — the raw per-cell points
// behind them. Points carry their environmental measurements (wall clock,
// heap, socket-race counters) in an `env` block the tables never read, so
// same-seed runs render identical tables.
type Report struct {
	Tables []*Table
	Points []any
}

// String renders the tables, one blank line apart.
func (r *Report) String() string {
	parts := make([]string, len(r.Tables))
	for i, t := range r.Tables {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n")
}

// report bundles tables with a typed point slice.
func report[P any](points []P, tables ...*Table) *Report {
	r := &Report{Tables: tables, Points: make([]any, len(points))}
	for i, p := range points {
		r.Points[i] = p
	}
	return r
}

// runStamp attributes appended points: without it a number cannot be
// compared with one taken on another commit, host or core count.
type runStamp struct {
	Rev        string `json:"rev"`
	GoVersion  string `json:"goVersion"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Date       string `json:"date"`
}

func newRunStamp() runStamp {
	s := runStamp{
		Rev:        "unknown", // go run and go test binaries carry no VCS stamp
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, kv := range bi.Settings {
			switch {
			case kv.Key == "vcs.revision":
				s.Rev = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "-dirty"
			}
		}
		s.Rev += dirty
	}
	return s
}

// AppendPoints appends one JSON line per point to the JSONL bench log at
// path, creating it if needed: {"fig": id, "run": stamp, "point": point}.
// The log is grow-only, one run appended after another; the figure id
// and the run block sit outside the point payload, so a file holding
// several figures' points is self-describing and the points themselves
// stay byte-comparable across runs once their env block is zeroed.
func AppendPoints(path, fig string, points []any) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	stamp := newRunStamp()
	for _, p := range points {
		line := struct {
			Fig   string   `json:"fig"`
			Run   runStamp `json:"run"`
			Point any      `json:"point"`
		}{fig, stamp, p}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Show runs the figure, prints its tables to stdout and, when benchOut is
// non-empty and the figure produced points, appends them to that log.
func (f Figure) Show(in *Inputs, benchOut string) error {
	rep, err := f.Run(in)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if benchOut == "" || len(rep.Points) == 0 {
		return nil
	}
	if err := AppendPoints(benchOut, f.ID, rep.Points); err != nil {
		return err
	}
	fmt.Printf("appended %d points to %s\n\n", len(rep.Points), benchOut)
	return nil
}
