package figures

import (
	"encoding/json"
	"testing"

	"github.com/socialtube/socialtube/internal/core"
)

// testSweep trims the smoke sweep to two shards so the determinism test's
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

// TestScaleSweepSharded pins the sharded sweep path: points carry the
// community-cell block, full workloads still complete, and the
// deterministic fields are byte-identical across worker counts — the
// Shards knob may only move wall clock and the Env block.
func TestScaleSweepSharded(t *testing.T) {
	sw := testSweep()
	sw.Sizes = []int{150}
	sw.Shards = 1
	a, err := RunScaleSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	sw.Shards = 4
	b, err := RunScaleSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := pointsOf[ScalePoint](t, a), pointsOf[ScalePoint](t, b)
	if len(pa) != len(protoOrder) || len(pb) != len(pa) {
		t.Fatalf("point counts: %d and %d, want %d", len(pa), len(pb), len(protoOrder))
	}
	for i := range pa {
		ca, cb := pa[i], pb[i]
		ca.Env, cb.Env = ScaleEnv{}, ScaleEnv{} // wall time and workers differ run to run
		ja, _ := json.Marshal(ca)
		jb, _ := json.Marshal(cb)
		if string(ja) != string(jb) {
			t.Fatalf("point %d differs between 1 and 4 workers:\n%s\nvs\n%s", i, ja, jb)
		}
	}
	for _, p := range pb {
		if p.Cells != sw.Scale.Categories {
			t.Errorf("%s: %d cells, want %d", p.Protocol, p.Cells, sw.Scale.Categories)
		}
		if want := int64(p.Users * sw.Scale.Sessions * sw.Scale.VideosPerSession); p.Requests != want {
			t.Errorf("%s: %d requests, want %d", p.Protocol, p.Requests, want)
		}
		if sum := p.CacheHitRate + p.PeerHitRate + p.ServerHitRate; sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: hit rates sum to %f", p.Protocol, sum)
		}
		if p.Env.Workers != 4 {
			t.Errorf("%s: env records %d workers, want 4", p.Protocol, p.Env.Workers)
		}
		if len(p.Env.ShardLoad) != p.Cells {
			t.Errorf("%s: %d shard-load rows for %d cells", p.Protocol, len(p.Env.ShardLoad), p.Cells)
		}
		// The two imbalance numbers share bench/'s definitions: the pool
		// cannot be more than fully busy, and the hottest of k loops holds
		// between 1/k and all of the work.
		if u := p.Env.Utilisation; u <= 0 || u > 1.001 {
			t.Errorf("%s: utilisation %f outside (0, 1]", p.Protocol, u)
		}
		if c := p.Env.CriticalPathFrac; c < 1/float64(p.Cells)-1e-9 || c > 1 {
			t.Errorf("%s: criticalPathFrac %f outside [1/%d, 1]", p.Protocol, c, p.Cells)
		}
		if p.Protocol == "SocialTube" && p.RemoteHits > p.RemoteLookups {
			t.Errorf("remote hits %d exceed lookups %d", p.RemoteHits, p.RemoteLookups)
		}
	}
	// The legacy path's points must not grow the sharded block.
	legacy := testSweep()
	legacy.Sizes = []int{150}
	c, err := RunScaleSweep(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pointsOf[ScalePoint](t, c) {
		if p.Cells != 0 || p.Env.Workers != 0 || p.Env.ShardLoad != nil {
			t.Fatalf("%s: single-engine point carries sharded fields: %+v", p.Protocol, p)
		}
	}
}
