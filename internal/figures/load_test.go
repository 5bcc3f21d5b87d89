package figures

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/load"
)

// smokeLoadSweep is the seconds-long variant of the load sweep: two
// columns, the top one saturating, over a toy trace.
func smokeLoadSweep() LoadSweep {
	sw := DefaultLoadSweep()
	sw.RPS = []float64{3, 18}
	sw.Duration = 45 * time.Second
	sw.Scale.TraceChannels = 60
	sw.Scale.TraceUsers = 200
	sw.Scale.Categories = 8
	return sw
}

// TestLoadSweepDeterminism pins the figure's reproducibility: two
// same-seed sweeps (flash crowd included) must render identical tables
// and byte-identical canonical points.
func TestLoadSweepDeterminism(t *testing.T) {
	sw := smokeLoadSweep()
	sw.Flash = &load.FlashCrowd{Channel: 0, At: sw.Duration / 4, For: sw.Duration / 4}
	a, err := RunLoad(sw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoad(sw)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed sweeps rendered different tables:\n%s\nvs\n%s", a, b)
	}
	pa, pb := pointsOf[LoadPoint](t, a), pointsOf[LoadPoint](t, b)
	if len(pa) != len(pb) {
		t.Fatalf("point counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		ca, cb := pa[i], pb[i]
		ca.Env, cb.Env = LoadEnv{}, LoadEnv{} // wall time and workers differ run to run
		ja, _ := json.Marshal(ca)
		jb, _ := json.Marshal(cb)
		if string(ja) != string(jb) {
			t.Fatalf("point %d differs across same-seed sweeps:\n%s\nvs\n%s", i, ja, jb)
		}
	}
	var flash int64
	for _, p := range pa {
		flash += p.FlashOffered
	}
	if flash == 0 {
		t.Fatal("flash crowd configured but no flash arrivals offered")
	}
}

// TestLoadSweepShape pins the overload arc's structural invariants over
// the smoke sweep: every (rps, protocol) cell present in order, offered
// arrivals conserved into busy drops plus protocol requests, the bounded
// queue honored, and the top column actually saturating (sheds on every
// protocol) while the bottom column stays clean.
func TestLoadSweepShape(t *testing.T) {
	sw := smokeLoadSweep()
	fig, err := RunLoad(sw)
	if err != nil {
		t.Fatal(err)
	}
	points := pointsOf[LoadPoint](t, fig)
	if want := len(sw.RPS) * len(protoOrder); len(points) != want {
		t.Fatalf("%d points, want %d", len(points), want)
	}
	for i, p := range points {
		wantRPS := sw.RPS[i/len(protoOrder)]
		wantProto := protoOrder[i%len(protoOrder)]
		if p.RPS != wantRPS || p.Protocol != wantProto {
			t.Fatalf("point %d is (%g, %s), want (%g, %s)", i, p.RPS, p.Protocol, wantRPS, wantProto)
		}
		if p.Offered == 0 {
			t.Errorf("%g %s: no offered arrivals", p.RPS, p.Protocol)
		}
		if p.Offered != p.Busy+p.Requests {
			t.Errorf("%g %s: offered %d != busy %d + requests %d",
				p.RPS, p.Protocol, p.Offered, p.Busy, p.Requests)
		}
		if p.QueuePeak > sw.QueueCap {
			t.Errorf("%g %s: queue peak %d exceeds cap %d", p.RPS, p.Protocol, p.QueuePeak, sw.QueueCap)
		}
		if p.ServerShed > 0 && p.ShedRate <= 0 {
			t.Errorf("%g %s: shed %d but shed rate %g", p.RPS, p.Protocol, p.ServerShed, p.ShedRate)
		}
		low, high := i/len(protoOrder) == 0, i/len(protoOrder) == len(sw.RPS)-1
		if low && p.ServerShed != 0 {
			t.Errorf("%g %s: bottom column shed %d requests", p.RPS, p.Protocol, p.ServerShed)
		}
		if high && p.ServerShed == 0 {
			t.Errorf("%g %s: top column shed nothing — sweep no longer saturates", p.RPS, p.Protocol)
		}
	}
}
