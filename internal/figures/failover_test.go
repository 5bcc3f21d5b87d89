package figures

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
)

func failoverConfig() emu.ClusterConfig { return emuConfig(24, 2, 6, 5*time.Millisecond) }

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
	c := failoverConfig()
	tr, err := EmuTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FigFailover(c, tr)
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
	c := failoverConfig()
	tr, err := EmuTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	canonical := func() []byte {
		t.Helper()
		f, err := FigFailover(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		pts := pointsOf[FailoverPoint](t, f)
		for i := range pts {
			pts[i].Env = FailoverEnv{}
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
	// The seed-1 points themselves, so a drift in the staging shows here
	// and not only in a manual diff of two builds' output.
	want := []FailoverPoint{
		{Protocol: "PA-VoD", Crashed: 2, PeerCompleted: 8, ServerRescues: 2, ServerRestarts: 6,
			NoRestartFrac: 0.625, Messages: 18},
		{Protocol: "SocialTube", Crashed: 6, PeerCompleted: 16,
			NoRestartFrac: 1, HandoffAttempts: 6, Handoffs: 6, Messages: 48},
		{Protocol: "NetTube", Crashed: 5, PeerCompleted: 9, ServerRescues: 2, ServerRestarts: 5,
			NoRestartFrac: 0.6875, HandoffAttempts: 5, Handoffs: 3, Messages: 104},
	}
	for i := range want {
		want[i].Seed, want[i].Providers, want[i].CachersPerVideo = 1, 12, 2
		want[i].Requests, want[i].CrashEvery = 16, 3
	}
	pinned, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(pinned) {
		t.Fatalf("seed-1 failover points moved:\n got %s\nwant %s", a, pinned)
	}
}
