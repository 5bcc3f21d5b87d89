package figures

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// FailoverEnv carries a point's environmental measurements — wall clock
// and the measured handoff stall. They ride along in BENCH_failover.json
// but never enter determinism comparisons: handoff latency is real
// socket timing, different on every host.
type FailoverEnv struct {
	WallMs            float64 `json:"wallMs"`
	MeanHandoffWaitMs float64 `json:"meanHandoffWaitMs"`
}

// FailoverPoint is one protocol's cell of the failover figure. Every
// field except Env is deterministic under a fixed seed.
type FailoverPoint struct {
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	// Schedule parameters.
	Providers       int `json:"providers"`
	CachersPerVideo int `json:"cachersPerVideo"`
	Requests        int `json:"requests"`
	CrashEvery      int `json:"crashEvery"`
	// Outcomes of crashed requests.
	Crashed        int     `json:"crashed"`
	PeerCompleted  int     `json:"peerCompleted"`
	ServerRescues  int     `json:"serverRescues"`
	ServerRestarts int     `json:"serverRestarts"`
	NoRestartFrac  float64 `json:"noRestartFrac"`
	// Failover mechanics.
	HandoffAttempts int    `json:"handoffAttempts"`
	Handoffs        int    `json:"handoffs"`
	Messages        int    `json:"messages"`
	BreakerOpens    uint64 `json:"breakerOpens"`
	BreakerSkips    uint64 `json:"breakerSkips"`
	RPCFailures     uint64 `json:"rpcFailures"`

	Env FailoverEnv `json:"env"`
}

// The failover figure's schedule: 12 providers (2 NetTube replicas per
// video), 16 sequential requests, the chunk-0 provider of every third
// request crashed — up to 6 of the 12 providers die over the run.
const (
	failoverProviders  = 12
	failoverCachers    = 2
	failoverRequests   = 16
	failoverCrashEvery = 3
)

// FigFailover measures delivery resilience under a seeded mid-stream
// provider-crash schedule: on every third request the provider serving
// chunk 0 is crashed the moment the chunk lands, and the table reports
// how often each protocol still finished without restarting delivery at
// the server. Replica placement is identical across protocols; what
// differs is discovery. SocialTube's channel overlay floods only peers
// that answer right now, so its candidate lists are live by
// construction; NetTube mixes live links with the tracker's stale
// per-video member lists; PA-VoD depends entirely on the tracker's
// watcher lists, which crashed watchers never leave.
func FigFailover(base emu.ClusterConfig, tr *trace.Trace) (*Report, error) {
	// The cluster is one requester plus the providers, whatever the
	// template's size: a shared trace too small for it gives way to one
	// generated for it at the template's seed.
	if len(tr.Users) < failoverProviders+1 {
		c := base
		c.Peers = failoverProviders + 1
		var err error
		if tr, err = EmuTrace(c); err != nil {
			return nil, err
		}
	}
	t := NewTable(
		"Failover resilience under mid-stream provider crashes (TCP emulation)",
		"protocol", "crashed", "noRestart", "peerDone", "rescues", "restarts", "handoffs", "waitMs", "brkSkips")
	points := make([]FailoverPoint, 0, 3)
	for _, name := range protoOrder {
		p, err := runFailover(base, emuModes[name], tr)
		if err != nil {
			return nil, fmt.Errorf("failover %s: %w", name, err)
		}
		t.AddRow(p.Protocol, p.Crashed, p.NoRestartFrac, p.PeerCompleted, p.ServerRescues,
			p.ServerRestarts, p.Handoffs, p.Env.MeanHandoffWaitMs, p.BreakerSkips)
		points = append(points, p)
	}
	return report(points, t), nil
}

// runFailover stages one protocol's provider pool on a started cluster of
// the template base (peer 0 requests, peers 1..12 provide), replays the
// crash schedule and reduces the run to its figure cell. Network
// conditions are pristine: the only fault is the schedule's own crashes,
// keyed to download progress and issued from the one requesting
// goroutine, so every count but Env is identical under one seed.
func runFailover(base emu.ClusterConfig, mode emu.Mode, tr *trace.Trace) (FailoverPoint, error) {
	cfg, seed := base, base.Seed
	cfg.Peer.Mode = mode
	cfg.Peers = failoverProviders + 1
	cfg.Conditions = nil
	// A crashed provider costs one RPCTimeout per attempt until the
	// requester's breaker opens, and an opened breaker stays open for the
	// run; no prefetching isolates delivery.
	cfg.Peer.PrefetchCount = 0
	cfg.Peer.RPCTimeout = 120 * time.Millisecond
	cfg.Peer.BreakerOpenFor = time.Hour
	c, err := emu.StartCluster(cfg, tr)
	if err != nil {
		return FailoverPoint{}, err
	}
	defer c.Stop()
	ch := failoverChannel(tr)
	if ch == nil || len(ch.Videos) < failoverRequests {
		return FailoverPoint{}, fmt.Errorf("%w: failover needs a channel with %d videos", dist.ErrBadParameter, failoverRequests)
	}
	videos := ch.Videos[:failoverRequests]
	requester, providers := c.Peers[0], c.Peers[1:]

	// Stage each protocol's own storage and discovery state.
	switch mode {
	case emu.ModeSocialTube:
		// The channel's subscriber community holds the channel's content
		// (session cache plus §IV-B community prefetching) and every
		// provider is a member of the one channel overlay.
		for _, p := range providers {
			for _, v := range videos {
				p.SeedCache(v)
			}
			p.Subscribe(ch.ID)
			p.JoinChannel(ch.ID)
		}
		// The requester is an established member: it holds no link yet,
		// and each join grants at most one more inner link.
		requester.Subscribe(ch.ID)
		for i := 0; i < cfg.Peer.InnerLinks && i < len(providers); i++ {
			requester.JoinChannel(ch.ID)
		}
	case emu.ModeNetTube:
		// Each node caches exactly the videos it watched: a seeded draw
		// puts every video on failoverCachers providers, each of which
		// advertises its replica to the tracker.
		g := dist.NewRNG(seed * 48_611)
		for _, v := range videos {
			for _, j := range g.Perm(len(providers))[:failoverCachers] {
				providers[j].SeedCache(v)
				providers[j].AnnounceHave(v)
			}
		}
	default:
		// PA-VoD keeps no cache: a provider serves only the video it is
		// currently watching. The seeded draw assigns each video one
		// watcher; a provider drawn again for a later video has moved on
		// from its earlier one — the tracker's watcher list for that
		// video is stale, as in the real system.
		g := dist.NewRNG(seed * 48_611)
		for _, v := range videos {
			providers[g.Intn(len(providers))].StartWatching(v)
		}
	}

	// The crash trigger: the moment chunk 0 of an armed request lands,
	// its provider dies. The hook runs synchronously inside the
	// requester's fetch loop, so the very next chunk RPC already fails.
	armed, crashed := false, 0
	requester.SetOnChunk(func(_ trace.VideoID, chunk, provider int) {
		if !armed || chunk != 0 || provider < 1 || provider >= len(c.Peers) || c.Peers[provider].IsCrashed() {
			return
		}
		c.Peers[provider].Crash()
		crashed++
		armed = false
	})

	ledger := vod.NewLedger(1, 0)
	var wait time.Duration
	begin := time.Now()
	for k, v := range videos {
		armed = k%failoverCrashEvery == 0
		rec := requester.RequestVideo(v)
		armed = false
		ledger.Record(0, rec.RequestResult, rec.Startup)
		wait += rec.HandoffWait
		// One maintenance round per request: every live node probes its
		// links and drops the dead ones. Keyed to request progress (not a
		// wall-clock ticker) so the run stays deterministic.
		for _, p := range c.Peers {
			if !p.IsCrashed() {
				p.Probe()
			}
		}
	}
	elapsed := time.Since(begin)

	// Every request lands in one bin: peers completed it (handoffs
	// included), the server rescued the remainder after a peer started
	// it, or the server restarted it from chunk 0.
	ctr := c.Counters()
	p := FailoverPoint{
		Protocol:        mode.String(),
		Seed:            seed,
		Providers:       failoverProviders,
		CachersPerVideo: failoverCachers,
		Requests:        failoverRequests,
		CrashEvery:      failoverCrashEvery,
		Crashed:         crashed,
		PeerCompleted:   int(ledger.PeerHits.Value()),
		ServerRescues:   int(ctr.HandoffServerRescues),
		HandoffAttempts: int(ctr.HandoffAttempts),
		Handoffs:        int(ctr.Handoffs),
		Messages:        int(ledger.Messages.Value()),
		BreakerOpens:    ctr.BreakerOpens,
		BreakerSkips:    ctr.BreakerSkips,
		RPCFailures:     ctr.RPCFailures,
		Env:             FailoverEnv{WallMs: float64(elapsed.Nanoseconds()) / 1e6},
	}
	p.ServerRestarts = p.Requests - p.PeerCompleted - p.ServerRescues
	p.NoRestartFrac = float64(p.Requests-p.ServerRestarts) / float64(p.Requests)
	if p.Handoffs > 0 {
		p.Env.MeanHandoffWaitMs = float64(wait) / float64(p.Handoffs) / float64(time.Millisecond)
	}
	return p, nil
}

// failoverChannel picks the channel with the most videos (lowest id wins
// ties), the one channel the whole experiment plays in.
func failoverChannel(tr *trace.Trace) *trace.Channel {
	var best *trace.Channel
	for i := range tr.Channels {
		if ch := &tr.Channels[i]; best == nil || len(ch.Videos) > len(best.Videos) {
			best = ch
		}
	}
	return best
}
