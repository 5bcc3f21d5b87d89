// Command bench is the repository's performance ledger: one harness that
// runs five fixed workloads against the simulator and the TCP emulation
// from outside, through their exported functions, checks their outputs,
// and reports every end-to-end and per-layer metric by name. See README.md
// in this directory for what each workload and metric is and why.
//
// It is a module of its own (run it from this directory, or through
// run.sh) so that the repository's build and tier-1 test time are
// unchanged by it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 12, "how long each pass measures: the workload's fixed round repeats while it fits (at least once)")
	trace := fs.Int("trace", 0, "1 adds the traced pass and micro-probes and reports the per-layer metrics")
	traced := fs.Bool("traced", false, "same as -trace 1")
	quick := fs.Bool("quick", false, "tiny populations: exercises every code path in seconds, measures nothing")
	out := fs.String("out", "", "results file to append one JSON record per run to (default out/results.jsonl with -workload all)")
	runs := fs.Int("runs", 1, "with -workload all: how many times to run the set, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two results files: bench -compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			logf("usage: bench -compare base.jsonl new.jsonl")
			return 2
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *runs < 1 || fs.NArg() != 0 {
		logf("bench: -seconds and -runs must be at least 1, and no arguments may follow the flags")
		return 2
	}
	opt := runOptions{Seed: *seed, Seconds: *seconds, Traced: *traced || *trace == 1, Quick: *quick, OutDir: "out"}
	if *out != "" {
		opt.OutDir = filepath.Dir(*out)
	}
	if *workload == "all" {
		if *out == "" {
			*out = filepath.Join(opt.OutDir, "results.jsonl")
		}
		return runAll(stdout, opt, *runs, *out)
	}
	def, ok := lookupWorkload(*workload)
	if !ok {
		logf("bench: unknown workload %q; choose all or one of %s", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rec, err := runWorkload(def, opt)
	if err != nil {
		logf("bench: %v", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			logf("bench: %v", err)
			return 1
		}
	}
	for _, g := range rec.Gates {
		logf("  FAILED CHECK: %s", g)
	}
	// Two lines: the full record, then the line the acceptance driver reads.
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		logf("bench: %v", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(driverResult(rec)); err != nil {
		logf("bench: %v", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// driverLine is the last line of a single-workload run, the one the
// acceptance driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult picks the metrics the driver expects: the untraced pass's
// end-to-end metrics, or with tracing every per-layer metric (0 for a
// layer the workload does not enter).
func driverResult(rec *record) driverLine {
	classes := []class{endToEnd}
	if rec.Traced {
		classes = []class{workloadE2E, layer}
	}
	line := driverLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]driverValue{}}
	for _, def := range metricsOf(classes...) {
		line.Metrics[def.Name] = driverValue{Value: rec.Metrics[def.Name].Value, Unit: def.Unit}
	}
	return line
}

// runAll runs every workload, each in a child process of its own so that
// it starts from a fresh heap and its peak resident set is its own, then
// prints the report and a one-line JSON summary.
func runAll(stdout io.Writer, opt runOptions, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		logf("bench: %v", err)
		return 1
	}
	var recs []record
	correct := true
	for i := 0; i < runs; i++ {
		for _, def := range workloads {
			args := []string{"-workload", def.Name, "-seed", fmt.Sprint(opt.Seed + int64(i)),
				"-seconds", fmt.Sprint(opt.Seconds), "-out", out}
			if opt.Traced {
				args = append(args, "-trace", "1")
			}
			if opt.Quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			var buf bytes.Buffer
			cmd.Stdout = &buf
			runErr := cmd.Run() // waits for the child to end
			var rec record
			line, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
			if err := json.Unmarshal(line, &rec); err != nil {
				logf("bench: %s produced no record (%v)", def.Name, runErr)
				return 1
			}
			correct = correct && rec.Correct && runErr == nil
			recs = append(recs, rec)
		}
	}
	printReport(stdout, recs)
	summary := struct {
		Stamp     stamp    `json:"stamp"`
		Workloads []string `json:"workloads"`
		Runs      int      `json:"runs"`
		Traced    bool     `json:"traced"`
		Correct   bool     `json:"correct"`
		Out       string   `json:"out"`
		// Claim is what this ledger asserts about speed: nothing. It
		// defines the measurement later changes claim against.
		Claim *string `json:"claim"`
	}{newStamp(opt.Seed), workloadNames(), runs, opt.Traced, correct, out, nil}
	if err := json.NewEncoder(stdout).Encode(summary); err != nil {
		logf("bench: %v", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// printReport prints every metric of every record by name, with its unit
// and, for timings, the sample count behind it.
func printReport(w io.Writer, recs []record) {
	for i := range recs {
		rec := &recs[i]
		fmt.Fprintf(w, "\n%s  seed %d  rounds %d  %s  go %s  nproc %d  GOMAXPROCS %d  rev %s  %s\n",
			rec.Workload, rec.Stamp.Seed, rec.Rounds, map[bool]string{true: "correct", false: "INCORRECT"}[rec.Correct],
			rec.Stamp.GoVersion, rec.Stamp.NProc, rec.Stamp.GOMAXPROCS, rec.Stamp.GitRev, rec.Stamp.Date)
		for _, g := range rec.Gates {
			fmt.Fprintf(w, "  FAILED CHECK: %s\n", g)
		}
		for _, def := range catalog {
			v, ok := rec.Metrics[def.Name]
			if !ok {
				continue
			}
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("n=%d", v.N)
			}
			fmt.Fprintf(w, "  %-34s %16.6g %-6s %-6s %s\n", def.Name, v.Value, def.Unit, def.Better, n)
		}
		for _, note := range rec.Notes {
			fmt.Fprintf(w, "  note: %s\n", note)
		}
	}
	fmt.Fprintln(w)
}
