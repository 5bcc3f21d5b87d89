package exp

import (
	"context"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// joinCounter wraps a protocol and counts Join calls per node — one Join
// per started session, so completed-session accounting is exact.
type joinCounter struct {
	vod.Protocol
	joins []int
}

func (p *joinCounter) Join(node int) { p.joins[node]++; p.Protocol.Join(node) }

// Probe forwards maintenance rounds so wrapping a protocol does not
// hide its Maintainer interface from the runner.
func (p *joinCounter) Probe(node int) int {
	if m, ok := p.Protocol.(Maintainer); ok {
		return m.Probe(node)
	}
	return 0
}

// TestProbesSurviveFullPopulationCrash pins the probeAll starvation fix:
// when a probe tick lands while the entire population is crashed, the
// probe loop used to stop rescheduling itself, so maintenance probing
// never resumed after the nodes rejoined — ProbeMessages stayed at zero
// for the rest of the run, silently zeroing the paper's headline
// maintenance-overhead measurement. With Spread 0 the whole wave crashes
// at exactly 1m and rejoins at exactly 11m; the first probe tick at 2m
// therefore sees zero online nodes.
func TestProbesSurviveFullPopulationCrash(t *testing.T) {
	tr := expTrace(t)
	cfg := quickConfig()
	cfg.Sessions = 3
	cfg.VideosPerSession = 4
	cfg.ProbeInterval = 2 * time.Minute
	cfg.Horizon = 0 // run until every session has completed
	plan := &faults.Plan{
		Seed: 7,
		Waves: []faults.ChurnWave{
			{At: time.Minute, Fraction: 1.0, DownFor: 10 * time.Minute},
		},
	}
	p := &joinCounter{Protocol: socialTube(t, tr), joins: make([]int, len(tr.Users))}
	res, err := RunCtx(context.Background(), cfg, tr, p, simnet.DefaultConfig(), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ProbeMessages.Value(); got == 0 {
		t.Fatalf("probe loop starved: 0 probe messages over %v with all rejoins pending", res.SimulatedTime)
	}
	for node, got := range p.joins {
		if got != cfg.Sessions {
			t.Errorf("node %d ran %d sessions, want %d", node, got, cfg.Sessions)
		}
	}
}

// TestSessionsCompleteUnderChurn counts completed sessions under an
// aggressive multi-wave churn plan (repeated full-population crashes
// with staggered rejoins): no leave/crash/rejoin interleaving may
// strand a node's remaining sessionsLeft.
func TestSessionsCompleteUnderChurn(t *testing.T) {
	tr := expTrace(t)
	for seed := int64(1); seed <= 3; seed++ {
		cfg := quickConfig()
		cfg.Seed = seed
		cfg.Sessions = 3
		cfg.VideosPerSession = 4
		cfg.Horizon = 0
		plan := &faults.Plan{
			Seed:        seed,
			DetectDelay: 30 * time.Second,
			Waves: []faults.ChurnWave{
				{At: 2 * time.Minute, Spread: 4 * time.Minute, Fraction: 1.0, DownFor: 90 * time.Second},
				{At: 5 * time.Minute, Spread: 4 * time.Minute, Fraction: 1.0, DownFor: 45 * time.Second},
				{At: 8 * time.Minute, Spread: 8 * time.Minute, Fraction: 1.0, DownFor: 2 * time.Minute},
				{At: 20 * time.Minute, Fraction: 1.0, DownFor: 70 * time.Second},
			},
		}
		p := &joinCounter{Protocol: socialTube(t, tr), joins: make([]int, len(tr.Users))}
		if _, err := RunCtx(context.Background(), cfg, tr, p, simnet.DefaultConfig(), Options{Faults: plan}); err != nil {
			t.Fatal(err)
		}
		stranded := 0
		for _, got := range p.joins {
			if got < cfg.Sessions {
				stranded++
			}
		}
		if stranded > 0 {
			t.Errorf("seed %d: %d nodes stranded with sessions left", seed, stranded)
		}
	}
}

// TestEndSessionOfflineReschedules pins the endSession offline path at
// the unit level: a node whose online flag dropped mid-chain (without a
// crash) still owns its remaining sessionsLeft, so endSession must
// schedule the off-time wake-up instead of returning early and
// stranding the node forever.
func TestEndSessionOfflineReschedules(t *testing.T) {
	tr := expTrace(t)
	cfg := quickConfig()
	cfg.Sessions = 2
	cfg.VideosPerSession = 2
	p := &joinCounter{Protocol: socialTube(t, tr), joins: make([]int, len(tr.Users))}
	r := testRunner(t, cfg, tr, p)
	const node = 0
	r.sessionsLeft[node] = cfg.Sessions
	// The node is offline and not crashed — the state watch() sees when
	// it ends a chain whose online flag was dropped out from under it.
	r.engine.At(0, func(time.Duration) { r.endSession(node, time.Minute) })
	if err := r.engine.RunCtx(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if r.sessionsLeft[node] != 0 {
		t.Fatalf("node stranded: %d sessions left after engine drained", r.sessionsLeft[node])
	}
	if p.joins[node] != cfg.Sessions {
		t.Fatalf("node ran %d sessions, want %d", p.joins[node], cfg.Sessions)
	}
	// A crashed node's restart belongs to its rejoin event: endSession
	// must NOT double-book a wake-up for it.
	r2 := testRunner(t, cfg, tr, socialTube(t, tr))
	r2.sessionsLeft[node] = cfg.Sessions
	r2.crashed[node] = true
	r2.engine.At(0, func(time.Duration) { r2.endSession(node, time.Minute) })
	if err := r2.engine.RunCtx(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if r2.sessionsLeft[node] != cfg.Sessions {
		t.Fatalf("crashed node consumed %d sessions via endSession; rejoin owns the restart",
			cfg.Sessions-r2.sessionsLeft[node])
	}
}

// call is one protocol callback a recordingProto saw.
type call struct {
	finish bool
	v      trace.VideoID
	at     time.Duration
}

// recordingProto serves every request from the local cache, so a video's
// finish event lands exactly its watched length after the request, and
// records each Request and Finish with the virtual time it came at.
type recordingProto struct {
	scriptedProto
	now   time.Duration
	calls []call
}

func (p *recordingProto) SetNow(now time.Duration) { p.now = now }
func (p *recordingProto) Request(_ int, v trace.VideoID) vod.RequestResult {
	p.calls = append(p.calls, call{v: v, at: p.now})
	return vod.RequestResult{Source: vod.SourceCache}
}
func (p *recordingProto) Finish(_ int, v trace.VideoID) {
	p.calls = append(p.calls, call{finish: true, v: v, at: p.now})
}

// TestOrphanedChainStaysDead pins the session generation check: a node
// crashes mid-video, while its finish event is still queued, and rejoins
// before that event's time. The old event must fire into nothing — no
// Finish of the abandoned video, no Request of its successor — and the
// rejoined session's chain must play its videos in order, each finished
// exactly its watched length after it was requested.
func TestOrphanedChainStaysDead(t *testing.T) {
	tr := expTrace(t)
	cfg := quickConfig()
	p := &recordingProto{}
	r := testRunner(t, cfg, tr, p)
	const node = 0
	r.sessionsLeft[node] = 2
	watched := func(v trace.VideoID) time.Duration {
		return time.Duration(float64(tr.Video(v).Length) * cfg.WatchScale)
	}
	var orphanAt time.Duration
	r.engine.At(0, func(now time.Duration) {
		r.startSession(node, now)
		// The first video's finish event is queued for orphanAt: crash
		// before it, and rejoin — starting the second session — before it
		// fires.
		orphanAt = watched(p.calls[0].v)
		r.engine.At(orphanAt/3, func(now time.Duration) { r.applyCrash(node, now) })
		r.engine.At(orphanAt/2, func(now time.Duration) { r.applyRejoin(node, now) })
	})
	if err := r.engine.RunCtx(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(p.calls) < 2 || p.calls[0].finish || p.calls[0].at != 0 {
		t.Fatalf("first session: calls %+v, want one request at 0 before the crash", p.calls)
	}
	chain := p.calls[1:]
	if len(chain) != 2*cfg.VideosPerSession {
		t.Fatalf("rejoined chain made %d calls, want a request and a finish for each of %d videos: %+v",
			len(chain), cfg.VideosPerSession, chain)
	}
	at := orphanAt / 2
	for i := 0; i < len(chain); i += 2 {
		req, fin := chain[i], chain[i+1]
		if req.finish || req.at != at {
			t.Fatalf("call %d: %+v, want the chain's request %d at %v", i+1, req, i/2, at)
		}
		at += watched(req.v)
		if !fin.finish || fin.v != req.v || fin.at != at {
			t.Fatalf("call %d: %+v, want the finish of video %d at %v", i+2, fin, req.v, at)
		}
	}
}
