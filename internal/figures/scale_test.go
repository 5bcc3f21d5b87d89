package figures

import (
	"encoding/json"
	"testing"

	"github.com/socialtube/socialtube/internal/core"
)

// testSweep trims the smoke sweep to two populations so the determinism test's
// two full executions stay inside the unit-test budget.
func testSweep() ScaleSweep {
	sw := SmokeScaleSweep()
	sw.Sizes = []int{150, 450}
	return sw
}

// TestScaleSweepDeterministic pins the acceptance criterion: at a fixed
// seed the sweep's tables and every deterministic point field are
// bit-identical run over run (only the Env block — wall clock, heap — may
// differ).
func TestScaleSweepDeterministic(t *testing.T) {
	a, err := RunScaleSweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScaleSweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed sweeps rendered different tables:\n%s\nvs\n%s", a, b)
	}
	pa, pb := pointsOf[ScalePoint](t, a), pointsOf[ScalePoint](t, b)
	if len(pa) != len(pb) {
		t.Fatalf("point counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		ca, cb := pa[i], pb[i]
		ca.Env, cb.Env = ScaleEnv{}, ScaleEnv{} // wall time and workers differ run to run
		ja, _ := json.Marshal(ca)
		jb, _ := json.Marshal(cb)
		if string(ja) != string(jb) {
			t.Fatalf("point %d differs across same-seed sweeps:\n%s\nvs\n%s", i, ja, jb)
		}
	}
}

// TestScaleSweepShape pins the sweep's structural invariants: every
// (population, protocol) cell present in order, full workloads completing,
// memory accounting consistent, and the protocols' maintenance fingerprints
// (SocialTube's link budget bounded by N_l+N_h, PA-VoD with no overlay at
// all, NetTube's links growing with the audience on a fixed catalog).
func TestScaleSweepShape(t *testing.T) {
	sw := testSweep()
	f, err := RunScaleSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	points := pointsOf[ScalePoint](t, f)
	if want := len(sw.Sizes) * len(protoOrder); len(points) != want {
		t.Fatalf("%d points, want %d", len(points), want)
	}
	budget := float64(core.DefaultConfig().InnerLinks + core.DefaultConfig().InterLinks)
	for i, p := range points {
		wantUsers := sw.Sizes[i/len(protoOrder)]
		wantProto := protoOrder[i%len(protoOrder)]
		if p.Users != wantUsers || p.Protocol != wantProto {
			t.Fatalf("point %d is (%d, %s), want (%d, %s)", i, p.Users, p.Protocol, wantUsers, wantProto)
		}
		if want := int64(p.Users * sw.Scale.Sessions * sw.Scale.VideosPerSession); p.Requests != want {
			t.Errorf("(%d, %s): %d requests, want %d", p.Users, p.Protocol, p.Requests, want)
		}
		if p.TraceBytes == 0 || p.BytesPerUser != float64(p.TraceBytes)/float64(p.Users) {
			t.Errorf("(%d, %s): inconsistent memory accounting: %d bytes, %f/user",
				p.Users, p.Protocol, p.TraceBytes, p.BytesPerUser)
		}
		if sum := p.CacheHitRate + p.PeerHitRate + p.ServerHitRate; sum < 0.999 || sum > 1.001 {
			t.Errorf("(%d, %s): hit rates sum to %f", p.Users, p.Protocol, sum)
		}
		switch p.Protocol {
		case "SocialTube":
			if p.MeanLinks > budget {
				t.Errorf("N=%d: SocialTube mean links %f exceed the N_l+N_h budget %f",
					p.Users, p.MeanLinks, budget)
			}
			if p.ProbesPerNode == 0 {
				t.Errorf("N=%d: SocialTube ran no maintenance probes", p.Users)
			}
			if p.ProbesPerNodeRound == 0 {
				t.Errorf("N=%d: SocialTube per-round probe rate not normalized", p.Users)
			}
		case "PA-VoD":
			if p.ProbesPerNode != 0 || p.MeanLinks != 0 {
				t.Errorf("N=%d: PA-VoD has overlay maintenance (probes %f, links %f)",
					p.Users, p.ProbesPerNode, p.MeanLinks)
			}
		}
	}
	// The sweep's reason to exist: on a fixed catalog, NetTube's per-node
	// links grow with the audience.
	small, large := points[2], points[len(points)-1] // NetTube closes each population's stride
	if large.MeanLinks <= small.MeanLinks {
		t.Errorf("NetTube links did not grow with N: %f at N=%d, %f at N=%d",
			small.MeanLinks, small.Users, large.MeanLinks, large.Users)
	}
}
