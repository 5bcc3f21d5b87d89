package figures

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/trace"
)

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

// TestTableFigures renders every registry figure that needs no
// simulation or emulation run — the whole trace group plus the sim
// group's analytical tables — and checks each for its signature content.
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

func TestEmuFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	s := SmallEmuScale()
	s.Peers = 10
	s.Sessions = 1
	s.VideosPerSession = 4
	s.WatchTime = 5 * time.Millisecond
	tr, err := s.EmuTrace()
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Fig16b(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f16, "SocialTube")
	f18, err := Fig18b(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f18, "NetTube")
	fo, err := FigOutage(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, fo, "outageServed")
}

func TestPaperScaleParameters(t *testing.T) {
	p := PaperScale()
	if p.TraceUsers != 10_000 || p.TraceChannels != 545 || p.Sessions != 25 || p.VideosPerSession != 10 {
		t.Fatalf("paper scale drifted from Table I: %+v", p)
	}
}
