package figures

import (
	"errors"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/load"
)

// TestSimAndEmuAgreeOnWinner is the cross-environment check the paper makes
// implicitly by publishing both PeerSim and PlanetLab results: the
// discrete-event simulator and the real TCP emulator must agree that
// SocialTube's median normalized peer bandwidth beats PA-VoD's.
func TestSimAndEmuAgreeOnWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both environments")
	}
	// Simulator side.
	s := SmallScale()
	tr, err := s.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	simResults, err := RunAllProtocols(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, simST, _ := simResults["SocialTube"].NormalizedPeerBandwidthPercentiles()
	_, simPV, _ := simResults["PA-VoD"].NormalizedPeerBandwidthPercentiles()
	if simST <= simPV {
		t.Fatalf("simulator: SocialTube %.3f not above PA-VoD %.3f", simST, simPV)
	}

	// Emulator side (scaled down to keep the test fast).
	es := emuConfig(40, 2, 6, 8*time.Millisecond)
	etr, err := EmuTrace(es)
	if err != nil {
		t.Fatal(err)
	}
	stRes, err := runMode(es, etr, emu.ModeSocialTube, nil)
	if err != nil {
		t.Fatal(err)
	}
	pvRes, err := runMode(es, etr, emu.ModePAVoD, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, emuST, _ := stRes.NormalizedPeerBandwidthPercentiles()
	_, emuPV, _ := pvRes.NormalizedPeerBandwidthPercentiles()
	// A small emulation is timing-noisy (real sockets under test load);
	// require agreement in direction within a noise band rather than a
	// strict ordering.
	const noise = 0.1
	if emuST < emuPV-noise {
		t.Fatalf("emulator disagrees with simulator beyond noise: SocialTube %.3f vs PA-VoD %.3f", emuST, emuPV)
	}
}

// TestRunCarriesJobOptionsToEitherPartition: a job states its options once
// and Scale.run hands them to the identity partition (shards 0), which runs
// each of them; the category partition (shards ≥ 1) replays closed-loop
// sessions only and refuses every one with a wrapped dist.ErrBadParameter
// rather than dropping it on the way to the engine.
func TestRunCarriesJobOptionsToEitherPartition(t *testing.T) {
	s := tinyScale()
	tr := tinyTrace(t)
	for _, o := range []struct {
		name    string
		opts    exp.Options
		applied func(*exp.Result) bool
	}{
		{"fault plan", exp.Options{Faults: faults.ChurnPlan(s.Seed, s.churnUnit())},
			func(res *exp.Result) bool { return res.Resilience.Crashes > 0 }},
		{"timeline", exp.Options{TimelineWindow: s.churnUnit()},
			func(res *exp.Result) bool { return res.Timeline != nil }},
		{"load profile", exp.Options{Load: &load.Profile{Mode: load.Steady, Seed: s.Seed, RPS: 5, Duration: 30 * time.Second}},
			func(res *exp.Result) bool { return res.Load != nil && res.Load.Offered > 0 }},
	} {
		job := protocolJob("SocialTube")
		job.opts = o.opts
		res, err := s.run(tr, job, 0)
		if err != nil {
			t.Fatalf("identity partition, %s: %v", o.name, err)
		}
		if !o.applied(res) {
			t.Fatalf("identity partition ran without its %s", o.name)
		}
		if res, err = s.run(tr, job, 2); !errors.Is(err, dist.ErrBadParameter) || res != nil {
			t.Fatalf("category partition with a %s: %v, %v; want nil and a wrapped dist.ErrBadParameter", o.name, res, err)
		}
	}
	if res, err := s.run(tr, protocolJob("SocialTube"), 2); err != nil || res.Sharded == nil {
		t.Fatalf("category partition without options: err=%v, want a sharded result", err)
	}
}

// TestChurnResilienceOrdering is the headline claim of the churn figure:
// under the standard ChurnPlan, SocialTube's interest-clustered overlay
// plus active repair keeps serving from peers better than NetTube's
// friend overlay, which in turn beats PA-VoD's ISP assistance; and the
// repair hook — which only SocialTube implements — is what keeps its
// orphan fraction an order of magnitude below the baselines'. The runs
// are seeded and single-threaded, so the ordering is deterministic.
func TestChurnResilienceOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three faulted simulations")
	}
	s := tinyScale()
	tr := tinyTrace(t)
	jobs := protocolJobs(protoOrder)
	for i := range jobs {
		jobs[i].opts.Faults = faults.ChurnPlan(s.Seed, s.churnUnit())
	}
	results, err := s.runJobs(tr, 0, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[string]*exp.Resilience)
	for i, name := range protoOrder {
		res[name] = &results[i].Resilience
	}
	st, nt, pv := res["SocialTube"], res["NetTube"], res["PA-VoD"]
	for name, r := range res {
		if r.Crashes == 0 || r.Rejoins != r.Crashes {
			t.Fatalf("%s: crashes=%d rejoins=%d, want a full crash/rejoin cycle", name, r.Crashes, r.Rejoins)
		}
	}
	if st.HitRateUnderFaults() <= nt.HitRateUnderFaults() || nt.HitRateUnderFaults() <= pv.HitRateUnderFaults() {
		t.Fatalf("fault-time hit rates out of order: SocialTube %.3f, NetTube %.3f, PA-VoD %.3f",
			st.HitRateUnderFaults(), nt.HitRateUnderFaults(), pv.HitRateUnderFaults())
	}
	if st.OrphanFraction.Mean() >= nt.OrphanFraction.Mean() || nt.OrphanFraction.Mean() >= pv.OrphanFraction.Mean() {
		t.Fatalf("orphan fractions out of order: SocialTube %.4f, NetTube %.4f, PA-VoD %.4f",
			st.OrphanFraction.Mean(), nt.OrphanFraction.Mean(), pv.OrphanFraction.Mean())
	}
	if st.RepairedLinks == 0 {
		t.Fatal("SocialTube's repair hook reattached no links under churn")
	}
	if nt.RepairedLinks != 0 || pv.RepairedLinks != 0 {
		t.Fatalf("baselines report repaired links (NetTube %d, PA-VoD %d) but implement no repair hook",
			nt.RepairedLinks, pv.RepairedLinks)
	}
}

// TestScaleBuildTraceAppliesMultiplier guards the paper-scale catalog
// dilution knob.
func TestScaleBuildTraceAppliesMultiplier(t *testing.T) {
	base := SmallScale()
	tr1, err := base.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.VideoCountMultiplier = 3
	tr3, err := scaled.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr3.Videos) < 2*len(tr1.Videos) {
		t.Fatalf("multiplier 3 grew catalog only from %d to %d", len(tr1.Videos), len(tr3.Videos))
	}
}

// TestPaperScaleCatalogNearTableOne pins the paper-scale catalog to Table
// I's 101,121 videos within a tolerance.
func TestPaperScaleCatalogNearTableOne(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 100k-video trace")
	}
	tr, err := PaperScale().BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Videos); got < 70_000 || got > 140_000 {
		t.Fatalf("paper-scale catalog %d videos, want near Table I's 101,121", got)
	}
}
