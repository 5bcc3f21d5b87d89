package figures

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/emu"
)

func takeoverConfig() emu.ClusterConfig { return emuConfig(24, 2, 6, 5*time.Millisecond) }

// TestShardedOutageLosesNothing pins the sharded-outage figure's
// headline: on the default 2x2 plane, each tracker replica dark in turn
// costs no request, because peers fail over to the shard's survivor.
func TestShardedOutageLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	c := emuConfig(12, 1, 4, 10*time.Millisecond)
	tr, err := EmuTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FigShardedOutage(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	points := pointsOf[ControlPlanePoint](t, f)
	if len(points) != 5 {
		t.Fatalf("want baseline + 4 replica-down points, got %d", len(points))
	}
	for _, p := range points {
		if p.Failed != 0 {
			t.Errorf("%s: lost %d requests; want 0", p.Variant, p.Failed)
		}
	}
}

// TestTakeoverRecovers pins the takeover figure's headline on a small
// scale: with a whole shard (every replica) dead for two units, the
// survivors declare the shard, peers reroute onto them, and the run
// loses zero requests — same for the 2-way partition variant.
func TestTakeoverRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	c := takeoverConfig()
	tr, err := EmuTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FigTakeover(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	points := pointsOf[ControlPlanePoint](t, f)
	if len(points) != 3 {
		t.Fatalf("want baseline + shard-dead + partition points, got %d", len(points))
	}
	for _, p := range points {
		if p.Failed != 0 {
			t.Errorf("%s: lost %d requests; want 0", p.Variant, p.Failed)
		}
		if p.Requests == 0 {
			t.Errorf("%s: served nothing", p.Variant)
		}
	}
	dead := points[1]
	if dead.Variant != "shard1-dead" {
		t.Fatalf("point order changed: %q", dead.Variant)
	}
	if dead.Env.DeclaredDead == 0 || dead.Env.TakeoverMs <= 0 {
		t.Errorf("shard death never declared: declared=%d takeoverMs=%v",
			dead.Env.DeclaredDead, dead.Env.TakeoverMs)
	}
	if dead.Env.Reroutes == 0 {
		t.Error("no request rerouted to a takeover owner")
	}
}

// TestTakeoverDeterministic runs the figure twice under one seed and
// requires the canonical points (environmental block zeroed) to be
// byte-identical JSON — the determinism contract of the bench file.
func TestTakeoverDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster runs")
	}
	c := takeoverConfig()
	tr, err := EmuTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	canonical := func() []byte {
		t.Helper()
		f, err := FigTakeover(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		pts := pointsOf[ControlPlanePoint](t, f)
		for i := range pts {
			pts[i].Env = ControlPlaneEnv{}
		}
		b, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := canonical(), canonical()
	if string(a) != string(b) {
		t.Fatalf("same-seed takeover points differ:\n%s\n%s", a, b)
	}
}
