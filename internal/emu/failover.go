package emu

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// FailoverConfig drives RunFailover: a deterministic mid-stream
// provider-crash experiment over real TCP. One requester issues Requests
// sequential video requests against a pool of provider peers; on every
// CrashEvery-th request the provider serving chunk 0 is crashed the
// moment that chunk lands, so the requester must fail over mid-stream.
//
// The crash schedule is keyed to download progress, not wall clock, and
// the whole run is single-threaded on the client side, so every count the
// result carries is bit-identical under one seed.
type FailoverConfig struct {
	// Providers is the provider pool size (peer ids 1..Providers; the
	// requester is id 0).
	Providers int
	// CachersPerVideo is how many NetTube providers hold each video —
	// the per-video session cache NetTube builds from watch history,
	// assigned by a seeded draw. SocialTube providers hold the whole
	// channel (the community cache of §IV-B) and PA-VoD providers hold
	// nothing: a watcher serves only the video it is currently watching.
	// That storage asymmetry is the paper's, not the harness's.
	CachersPerVideo int
	// Requests is how many sequential requests the requester issues,
	// each for a distinct video of one channel.
	Requests int
	// CrashEvery crashes the chunk-0 provider of every n-th request
	// (1 = every request). Crashes are permanent: no rejoin, exactly as
	// an abrupt departure looks to the overlay.
	CrashEvery int
	// Seed drives the tracker's and every peer's random choices.
	Seed int64
	// Peer is the template the requester and every provider are copies of,
	// ID and Seed aside; its Mode is the protocol under test. A crashed
	// provider costs one RPCTimeout per attempt until the requester's
	// breaker opens; the default BreakerOpenFor (an hour) outlasts any run,
	// so an opened breaker stays open and the schedule deterministic; the
	// default PrefetchCount of 0 isolates delivery from prefetching.
	Peer PeerConfig
}

// DefaultFailoverConfig returns the figure's standard schedule: 12
// providers (2 NetTube replicas per video), 16 requests, a crash every
// third request — up to 6 of the 12 providers die over the run.
func DefaultFailoverConfig(mode Mode) FailoverConfig {
	peer := DefaultPeerConfig(0, mode)
	peer.PrefetchCount = 0
	peer.RPCTimeout = 120 * time.Millisecond
	peer.BreakerOpenFor = time.Hour
	return FailoverConfig{
		Providers:       12,
		CachersPerVideo: 2,
		Requests:        16,
		CrashEvery:      3,
		Seed:            1,
		Peer:            peer,
	}
}

// Validate reports the first problem with the configuration.
func (c FailoverConfig) Validate() error {
	switch {
	case c.Providers < 2:
		return fmt.Errorf("%w: providers=%d", dist.ErrBadParameter, c.Providers)
	case c.CachersPerVideo < 1 || c.CachersPerVideo > c.Providers:
		return fmt.Errorf("%w: cachersPerVideo=%d", dist.ErrBadParameter, c.CachersPerVideo)
	case c.Requests < 1:
		return fmt.Errorf("%w: requests=%d", dist.ErrBadParameter, c.Requests)
	case c.CrashEvery < 1:
		return fmt.Errorf("%w: crashEvery=%d", dist.ErrBadParameter, c.CrashEvery)
	}
	if err := c.Peer.Validate(); err != nil {
		return fmt.Errorf("peer template: %w", err)
	}
	return nil
}

// FailoverResult aggregates one failover run. Every request lands in one
// of three bins: PeerCompleted (all chunks came from peers, handoffs
// included), ServerRescues (a peer started delivery and the server
// completed only the remainder) or ServerRestarts (delivery never
// started from a peer — the server served from chunk 0). The figure's
// headline is the no-restart fraction.
type FailoverResult struct {
	Protocol string
	Requests int
	// Crashed counts requests whose chunk-0 provider was crashed.
	Crashed        int
	PeerCompleted  int
	ServerRescues  int
	ServerRestarts int
	// Handoff accounting across all requests.
	HandoffAttempts int
	Handoffs        int
	HandoffWaitMs   obs.Hist
	// Messages counts query messages across all requests.
	Messages int
	// Obs merges the tracker's and every peer's counters.
	Obs obs.Counters
	// Elapsed is the run's wall-clock duration (environmental).
	Elapsed time.Duration
}

// NoRestartFraction is the fraction of all requests whose delivery never
// had to restart at the server: peers served chunk 0 and either finished
// (handoffs included) or were rescued mid-stream.
func (r *FailoverResult) NoRestartFraction() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Requests-r.ServerRestarts) / float64(r.Requests)
}

// failoverChannel picks the channel with the most videos (lowest id wins
// ties), the one channel the whole experiment plays in.
func failoverChannel(tr *trace.Trace) *trace.Channel {
	var best *trace.Channel
	for i := range tr.Channels {
		ch := &tr.Channels[i]
		if best == nil || len(ch.Videos) > len(best.Videos) {
			best = ch
		}
	}
	return best
}

// RunFailover stages the provider pool, replays the crash schedule and
// returns the aggregated outcome. Network conditions are pristine (no
// injected latency or loss): the only fault in the run is the schedule's
// own provider crashes, so the result isolates failover behaviour.
func RunFailover(cfg FailoverConfig, tr *trace.Trace) (*FailoverResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("failover config: %w", err)
	}
	if tr == nil || len(tr.Users) < cfg.Providers+1 {
		return nil, fmt.Errorf("%w: failover needs %d users in the trace", dist.ErrBadParameter, cfg.Providers+1)
	}
	ch := failoverChannel(tr)
	if ch == nil || len(ch.Videos) < cfg.Requests {
		return nil, fmt.Errorf("%w: failover needs a channel with %d videos", dist.ErrBadParameter, cfg.Requests)
	}
	videos := ch.Videos[:cfg.Requests]

	tc := DefaultTrackerConfig()
	tc.Seed = cfg.Seed
	plane, err := StartControlPlane(ControlPlaneConfig{Shards: 1, Replicas: 1}, tc, tr, nil)
	if err != nil {
		return nil, err
	}
	defer plane.Stop()

	peers, err := startPeers(cfg.Peer, cfg.Providers+1, cfg.Seed, tr, plane, nil)
	if err != nil {
		return nil, err
	}
	defer stopPeers(peers)
	for _, p := range peers {
		p.SetOnline(true)
	}
	requester := peers[0]

	// Stage each protocol's own storage and discovery state.
	switch cfg.Peer.Mode {
	case ModeSocialTube:
		// The channel's subscriber community holds the channel's content
		// (session cache plus §IV-B community prefetching) and every
		// provider is a member of the one channel overlay.
		for _, p := range peers[1:] {
			for _, v := range videos {
				p.SeedCache(v)
			}
			p.Subscribe(ch.ID)
			p.JoinChannel(ch.ID)
		}
		requester.Subscribe(ch.ID)
		// The requester is an established member: each join grants at
		// most one more inner link.
		requester.mu.Lock()
		warm := requester.cfg.InnerLinks - requester.links.inner.Len()
		requester.mu.Unlock()
		for i := 0; i < warm && i < cfg.Providers; i++ {
			requester.JoinChannel(ch.ID)
		}
	case ModeNetTube:
		// Each node caches exactly the videos it watched: a seeded draw
		// puts every video on CachersPerVideo providers, each of which
		// advertises its replica to the tracker.
		g := dist.NewRNG(cfg.Seed * 48_611)
		for _, v := range videos {
			for _, j := range g.Perm(cfg.Providers)[:cfg.CachersPerVideo] {
				peers[1+j].SeedCache(v)
				peers[1+j].AnnounceHave(v)
			}
		}
	default:
		// PA-VoD keeps no cache: a provider serves only the video it is
		// currently watching. The seeded draw assigns each video one
		// watcher; a provider drawn again for a later video has moved on
		// from its earlier one — the tracker's watcher list for that
		// video is stale, as in the real system.
		g := dist.NewRNG(cfg.Seed * 48_611)
		for _, v := range videos {
			peers[1+g.Intn(cfg.Providers)].StartWatching(v)
		}
	}

	// The crash trigger: the moment chunk 0 of an armed request lands,
	// its provider dies. The hook runs synchronously inside the
	// requester's fetch loop, so the very next chunk RPC already fails.
	armed := false
	crashFired := false
	requester.SetOnChunk(func(_ trace.VideoID, chunk, provider int) {
		if !armed || chunk != 0 || provider < 1 || provider > cfg.Providers {
			return
		}
		if peers[provider].IsCrashed() {
			return
		}
		peers[provider].Crash()
		crashFired = true
		armed = false
	})

	res := &FailoverResult{Protocol: cfg.Peer.Mode.String(), Requests: cfg.Requests}
	begin := time.Now()
	for k, v := range videos {
		armed = k%cfg.CrashEvery == 0
		crashFired = false
		rec := requester.RequestVideo(v)
		armed = false
		res.Messages += rec.Messages
		res.HandoffAttempts += rec.HandoffAttempts
		res.Handoffs += rec.Handoffs
		for h := 0; h < rec.Handoffs; h++ {
			res.HandoffWaitMs.Add(float64(rec.HandoffWait) / float64(rec.Handoffs) / float64(time.Millisecond))
		}
		if crashFired {
			res.Crashed++
		}
		switch {
		case rec.Source == vod.SourcePeer:
			res.PeerCompleted++
		case rec.ServerRescued:
			res.ServerRescues++
		default:
			res.ServerRestarts++
		}
		// One maintenance round per request: every live node probes its
		// links and drops the dead ones. Keyed to request progress (not a
		// wall-clock ticker) so the run stays deterministic.
		for _, p := range peers {
			if !p.IsCrashed() {
				p.Probe()
			}
		}
	}
	res.Elapsed = time.Since(begin)
	res.Obs = plane.Counters()
	for _, p := range peers {
		res.Obs.Merge(p.Counters())
	}
	return res, nil
}
