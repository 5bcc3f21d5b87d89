package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickPath runs every workload end to end at toy size, traced, and
// checks that each reports every metric the catalog says it measures.
func TestQuickPath(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	for _, def := range workloads {
		rec, err := runWorkload(def, runOptions{Seed: 3, Seconds: 1, Traced: true, Quick: true, OutDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if !rec.Correct {
			t.Errorf("%s: failed checks: %v", def.Name, rec.Gates)
		}
		if rec.Attempted < 1 || rec.Failed != 0 || rec.Rounds != 1 {
			t.Errorf("%s: attempted %d, failed %d, rounds %d", def.Name, rec.Attempted, rec.Failed, rec.Rounds)
		}
		for _, m := range catalog {
			v, ok := rec.Metrics[m.Name]
			if m.on(def.Name) != ok {
				t.Errorf("%s: metric %s reported=%v, catalog says measured=%v", def.Name, m.Name, ok, m.on(def.Name))
			}
			if ok && v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, want %q", def.Name, m.Name, v.Unit, m.Unit)
			}
		}
		if strings.HasPrefix(def.Name, "sim-") && len(rec.Digests) == 0 {
			t.Errorf("%s: no result digests", def.Name)
		}
		for _, traced := range []bool{false, true} {
			rec.Traced = traced
			res := driverResult(rec)
			want := len(metricsOf(endToEnd))
			if traced {
				want = len(metricsOf(workloadE2E, layer))
			}
			if got := len(res.Metrics); got != want {
				t.Errorf("%s traced=%v: driver line has %d metrics, want %d", def.Name, traced, got, want)
			}
		}
		checkSpans(t, filepath.Join(dir, "trace-"+def.Name+".jsonl"), def.Name)
		if err := appendRecord(out, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := readRecords(out)
	if err != nil || len(recs) != len(workloads) {
		t.Fatalf("read back %d records, err %v", len(recs), err)
	}
	var report bytes.Buffer
	printReport(&report, recs)
	for _, name := range []string{"setup_s", "req_per_s", "knee_rps", "emu_req_p99_us", "core.request_us"} {
		if !strings.Contains(report.String(), name) {
			t.Errorf("report does not print %s", name)
		}
	}
}

// checkSpans reads a span file back: one root named after the workload,
// every other span nested under an earlier one and closed.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for i, line := range lines {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Errorf("%s line %d: %v", path, i+1, err)
			return
		}
		switch {
		case s.ID != i+1:
			t.Errorf("%s: span %d has id %d", path, i+1, s.ID)
		case i == 0 && (s.Parent != 0 || s.Name != workload):
			t.Errorf("%s: root span is %+v", path, s)
		case i > 0 && (s.Parent < 1 || s.Parent >= s.ID):
			t.Errorf("%s: span %d has parent %d", path, s.ID, s.Parent)
		case s.EndNs < s.StartNs:
			t.Errorf("%s: span %q never ended", path, s.Name)
		}
	}
	if len(lines) < 4 {
		t.Errorf("%s: only %d spans", path, len(lines))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	abs := metricDef{Name: "knee", Better: "higher", Abs: 0.5}
	// one(xs...) is a set of runs on a seed no other set shares;
	// seeds(xs...) puts run i on seed i.
	lone := int64(0)
	one := func(xs ...float64) bySeed { lone--; return bySeed{lone: xs} }
	seeds := func(xs ...float64) bySeed {
		b := bySeed{}
		for i, x := range xs {
			b[int64(i)] = []float64{x}
		}
		return b
	}
	steady := seeds(100, 101, 99, 100, 100)
	cases := []struct {
		name string
		def  metricDef
		base bySeed
		next bySeed
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"no shared seed, same values", lower, one(100, 101, 99), one(100, 101, 99), verdictOK},
		{"lower-better got 5% slower", lower, steady, one(105), verdictOK},
		{"lower-better got 20% slower", lower, steady, one(120), verdictWorse},
		{"lower-better got faster", lower, steady, one(50), verdictOK},
		{"higher-better dropped 20%", higher, steady, one(80), verdictWorse},
		{"higher-better rose", higher, steady, one(150), verdictOK},
		{"base too noisy to tell", lower, one(60, 100, 140, 100, 80, 120), one(100), verdictUnresolved},
		{"seed-to-seed variation cancels when seeds are shared", lower, seeds(60, 100, 140, 100, 80, 120), seeds(61, 101, 141, 101, 81, 121), verdictOK},
		{"shared seeds, every one 20% slower", lower, seeds(60, 100, 140), seeds(72, 120, 168), verdictWorse},
		{"shared seeds, differences too noisy", lower, seeds(100, 100, 100, 100), seeds(80, 125, 90, 130), verdictUnresolved},
		{"knee moved one step", abs, seeds(8.5), seeds(8), verdictOK},
		{"knee moved two steps", abs, seeds(8.5), seeds(7.5), verdictWorse},
	}
	for _, c := range cases {
		if _, _, _, got := judge(c.def, c.base, c.next); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reqPerS float64, digest string) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 3; seed++ {
			rec := &record{Workload: wSimClosed, Correct: true, Stamp: stamp{Seed: seed}, Metrics: map[string]value{},
				Digests: map[string]string{"SocialTube": digest}}
			rec.set("req_per_s", reqPerS+float64(seed), 1)
			rec.set("peer_bw_p50", 0.33, 0)
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 1000, "aa")
	var out bytes.Buffer
	if code := runCompare(&out, base, write("same.jsonl", 1000, "aa")); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "3 equal, 0 moved") {
		t.Errorf("digest line missing:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(&out, base, write("slow.jsonl", 700, "bb")); code != 1 {
		t.Errorf("30%% slower set: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "0 equal, 3 moved") {
		t.Errorf("slower set not flagged:\n%s", out.String())
	}
}
