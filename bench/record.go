package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp attributes a record: without it a number cannot be compared with
// one taken on another commit, host or core count.
type stamp struct {
	GitRev     string `json:"gitRev"`
	GoVersion  string `json:"goVersion"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Date       string `json:"date"`
}

func newStamp(seed int64) stamp {
	return stamp{
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRev names the commit under test, or "unknown" where the sources are
// not in a git checkout (the acceptance driver runs from an export).
func gitRev() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// value is one reported number. N is the sample count behind a timing
// (0 for counts, ratios and single measurements).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// record is one run of one workload: a line of the results file.
type record struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Quick    bool   `json:"quick,omitempty"`
	Seconds  int    `json:"seconds"`
	Rounds   int    `json:"rounds"`
	Stamp    stamp  `json:"stamp"`
	// Correct is the conjunction of every gate; Gates lists each one
	// that failed.
	Correct   bool     `json:"correct"`
	Gates     []string `json:"gateFailures,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// Metrics holds the end-to-end metrics (untraced pass) and, when
	// Traced, the per-layer ones.
	Metrics map[string]value `json:"metrics"`
	// Digests maps each simulator leg to the sha-256 of its exp.Result
	// JSON: parent-vs-change runs show at a glance whether simulated
	// behaviour moved.
	Digests map[string]string `json:"resultDigests,omitempty"`
	// Notes carries statements the numbers need to be read correctly.
	Notes []string `json:"notes,omitempty"`
}

func (r *record) set(name string, v float64, n int) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.Metrics[name] = value{Value: v, Unit: def.Unit, N: n}
}

func (r *record) gate(ok bool, format string, args ...any) {
	if !ok {
		r.Gates = append(r.Gates, fmt.Sprintf(format, args...))
	}
}

// appendRecord adds the record as one JSON line to path.
func appendRecord(path string, r *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readRecords loads a results file written by appendRecord.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// span is one coarse interval of a run: the workload, a set-up step, a
// protocol leg, a load column or an emu mode. Per-call spans are
// aggregated by the decorator instead of stored — sim-closed alone makes
// millions of Probe calls.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for the root
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since the recorder was created
	EndNs   int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the run ends. It is used from the
// harness's main goroutine only.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// start opens a span under parent (0 for none) and returns its id.
func (l *spanLog) start(parent int, name string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(l.origin).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNs = time.Since(l.origin).Nanoseconds()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err = enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
