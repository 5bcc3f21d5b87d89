package figures

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/trace"
)

// emuConfig is the cluster template socialtube-emu builds from -peers,
// -sessions, -videos and -watch, at seed 1.
func emuConfig(peers, sessions, videos int, watch time.Duration) emu.ClusterConfig {
	c := emu.NewClusterConfig(emu.ModeSocialTube, sessions, videos, watch, 1)
	c.Peers = peers
	return c
}

func tinyScale() Scale {
	return Scale{
		TraceChannels:    60,
		TraceUsers:       150,
		Categories:       8,
		Sessions:         2,
		VideosPerSession: 5,
		WatchScale:       0.05,
		Seed:             1,
	}
}

func tinyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := tinyScale().BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pointsOf returns a report's points as their concrete type.
func pointsOf[P any](t *testing.T, r *Report) []P {
	t.Helper()
	out := make([]P, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.(P)
	}
	return out
}

func requireRows(t *testing.T, tb fmt.Stringer, wantSubstring string) {
	t.Helper()
	out := tb.String()
	if !strings.Contains(out, wantSubstring) {
		t.Fatalf("table missing %q:\n%s", wantSubstring, out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
		t.Fatalf("table has no data rows:\n%s", out)
	}
}

// TestTableFigures renders the registry's trace group plus the sim group's
// analytical tables (Fig. 15, Table I) and -fig prefetch, whose measured
// rows come from a tiny single-protocol run, and checks each for its
// signature content.
func TestTableFigures(t *testing.T) {
	in := &Inputs{Scale: tinyScale(), Trace: tinyTrace(t), MinShared: 2}
	tests := []struct {
		group Group
		id    string
		want  string
	}{
		{GroupTrace, "2", "Fig. 2"},
		{GroupTrace, "3", "Fig. 3"},
		{GroupTrace, "4", "Fig. 4"},
		{GroupTrace, "5", "pearson"},
		{GroupTrace, "6", "Fig. 6"},
		{GroupTrace, "7", "Fig. 7"},
		{GroupTrace, "8", "Fig. 8"},
		{GroupTrace, "9", "zipf"},
		{GroupTrace, "10", "intraCategoryFraction"},
		{GroupTrace, "11", "Fig. 11"},
		{GroupTrace, "12", "similarity"},
		{GroupTrace, "13", "interests"},
		{GroupSim, "15", "NetTube"},
		{GroupSim, "prefetch", "accuracy"},
		{GroupSim, "table1", "Table I"},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			figs, err := Resolve(tt.group, tt.id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := figs[0].Run(in)
			if err != nil {
				t.Fatal(err)
			}
			requireRows(t, rep, tt.want)
		})
	}
}

func TestSimFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol simulation")
	}
	s := tinyScale()
	tr := tinyTrace(t)
	f16, err := Fig16a(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f16, "SocialTube")
	f17, err := Fig17a(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f17, "w/ PF")
	f18, err := Fig18a(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f18, "NetTube")
	fc, err := FigChurn(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, fc, "repairMs")
}

// TestPrefetchFigureMeasured pins -fig prefetch's measured table: two runs
// at one seed print the same report, M = 0 serves nothing from a prefetched
// chunk, and M = 3 serves some.
func TestPrefetchFigureMeasured(t *testing.T) {
	s, tr := tinyScale(), tinyTrace(t)
	reps := make([]*Report, 2)
	for i := range reps {
		rep, err := FigPrefetch(s, tr)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if a, b := reps[0].String(), reps[1].String(); a != b {
		t.Fatalf("same-seed runs differ:\n%s\n---\n%s", a, b)
	}
	if len(reps[0].Tables) != 3 {
		t.Fatalf("%d tables, want model, measured and counters", len(reps[0].Tables))
	}
	hitRate := map[string]float64{}
	for _, row := range reps[0].Tables[1].rows {
		v, err := strconv.ParseFloat(strings.TrimSpace(row[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		hitRate[row[0]] = v
	}
	if len(hitRate) != len(prefetchCounts) {
		t.Fatalf("measured rows %v, want one per M in %v", hitRate, prefetchCounts)
	}
	if hitRate["0"] != 0 || hitRate["3"] <= 0 {
		t.Fatalf("prefetch hit rate %v at M=0 and %v at M=3, want 0 and > 0", hitRate["0"], hitRate["3"])
	}
}

func TestEmuFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	c := emuConfig(10, 1, 4, 5*time.Millisecond)
	tr, err := EmuTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Fig16b(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f16, "SocialTube")
	f18, err := Fig18b(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f18, "NetTube")
	fo, err := FigOutage(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, fo, "outageServed")
}

// TestDeliveryFiguresShareOneBuilder: each of Figs. 16–18 is stated once
// over the ledger both substrates keep, so its simulator and emulation
// registry entries must render the same columns and row labels under titles
// that differ only in the panel and the substrate's name — and only the
// simulator appends a counter summary.
func TestDeliveryFiguresShareOneBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every delivery figure on both substrates")
	}
	es := emuConfig(6, 1, 2, time.Millisecond)
	etr, err := EmuTrace(es)
	if err != nil {
		t.Fatal(err)
	}
	ss := tinyScale()
	ss.VideosPerSession = es.VideosPerSession // Fig. 18 has one row per video of a session
	in := &Inputs{Scale: ss, Trace: tinyTrace(t), Emu: es, EmuTrace: etr}
	run := func(g Group, id string) *Report {
		figs, err := Resolve(g, id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := figs[0].Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	labels := func(tb *Table) []string {
		out := make([]string, len(tb.rows))
		for i, row := range tb.rows {
			out[i] = row[0]
		}
		return out
	}
	for _, num := range []string{"16", "17", "18"} {
		sim, emu := run(GroupSim, num+"a"), run(GroupEmu, num+"b")
		if len(sim.Tables) != 2 || len(emu.Tables) != 1 {
			t.Fatalf("Fig. %s: %d simulator and %d emulation tables, want 2 (figure + counters) and 1", num, len(sim.Tables), len(emu.Tables))
		}
		a, b := sim.Tables[0], emu.Tables[0]
		if !slices.Equal(a.headers, b.headers) {
			t.Errorf("Fig. %s: header rows differ: %v vs %v", num, a.headers, b.headers)
		}
		if !slices.Equal(labels(a), labels(b)) {
			t.Errorf("Fig. %s: row labels differ: %v vs %v", num, labels(a), labels(b))
		}
		onB := strings.NewReplacer("(a)", "(b)", "(simulator)", "(TCP emulation)").Replace(a.title)
		if !strings.HasPrefix(a.title, "Fig. "+num+"(a) — ") || onB != b.title {
			t.Errorf("Fig. %s: titles %q and %q are not one title on two substrates", num, a.title, b.title)
		}
	}
}

func TestPaperScaleParameters(t *testing.T) {
	p := PaperScale()
	if p.TraceUsers != 10_000 || p.TraceChannels != 545 || p.Sessions != 25 || p.VideosPerSession != 10 {
		t.Fatalf("paper scale drifted from Table I: %+v", p)
	}
}
