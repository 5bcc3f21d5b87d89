package figures

import (
	"encoding/json"
	"testing"
	"time"
)

func failoverScale() EmuScale {
	return EmuScale{
		Peers:            24,
		Sessions:         2,
		VideosPerSession: 6,
		WatchTime:        5 * time.Millisecond,
		Seed:             1,
	}
}

// TestFailoverOrdering pins the figure's headline: under the standard
// mid-stream provider-crash schedule, SocialTube's community cache keeps
// delivery off the server better than NetTube's bounded per-video
// replicas, which in turn beat PA-VoD's cache-less watcher lists. The
// schedule is progress-keyed and seeded, so the ordering is exact, not
// statistical.
func TestFailoverOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	s := failoverScale()
	tr, err := s.EmuTrace()
	if err != nil {
		t.Fatal(err)
	}
	f, err := FigFailover(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, f, "noRestart")
	points := pointsOf[FailoverPoint](t, f)
	frac := map[string]float64{}
	for _, p := range points {
		frac[p.Protocol] = p.NoRestartFrac
		if p.Crashed == 0 {
			t.Errorf("%s: schedule crashed no providers", p.Protocol)
		}
	}
	st, nt, pv := frac["SocialTube"], frac["NetTube"], frac["PA-VoD"]
	if !(st > nt && nt > pv) {
		t.Fatalf("no-restart ordering broken: SocialTube %.3f, NetTube %.3f, PA-VoD %.3f", st, nt, pv)
	}
	for _, p := range points {
		if p.Protocol == "SocialTube" && p.Handoffs == 0 {
			t.Error("SocialTube never handed off mid-stream despite crashes")
		}
	}
}

// TestFailoverDeterministic runs the whole figure twice under one seed
// and requires the canonical points (environmental block zeroed) to be
// byte-identical JSON.
func TestFailoverDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	s := failoverScale()
	tr, err := s.EmuTrace()
	if err != nil {
		t.Fatal(err)
	}
	canonical := func() []byte {
		t.Helper()
		f, err := FigFailover(s, tr)
		if err != nil {
			t.Fatal(err)
		}
		pts := pointsOf[FailoverPoint](t, f)
		for i, p := range pts {
			pts[i] = p.Canonical()
		}
		b, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := canonical(), canonical()
	if string(a) != string(b) {
		t.Fatalf("same-seed failover points differ:\n%s\n%s", a, b)
	}
}
