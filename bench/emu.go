package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// unmodelled is an uplink so fast that the emulation's bandwidth model
// never sleeps: with injected latency and loss off as well, what the
// clock sees is the program's own cost.
const unmodelled = 1_000_000_000_000

// emuSizes size an emulation workload.
type emuSizes struct {
	Channels, Categories, Peers int
	Sessions, Videos            int
	Plane                       emu.ControlPlaneConfig
	Modes                       []emu.Mode
}

// cluster is one running tracker plane with its peers, all in this
// process, talking over loopback TCP.
type cluster struct {
	mode  emu.Mode
	plane *emu.ControlPlane
	peers []*emu.Peer
}

func (c *cluster) stop() {
	for _, p := range c.peers {
		p.Stop()
	}
	if c.plane != nil {
		c.plane.Stop()
	}
}

// startCluster builds a cluster through the emulation's exported API, with
// no injected conditions.
func startCluster(z emuSizes, mode emu.Mode, tr *trace.Trace, seed int64) (*cluster, error) {
	tc := emu.DefaultTrackerConfig()
	tc.Seed = seed
	tc.UplinkBps = unmodelled
	c := &cluster{mode: mode}
	var err error
	if c.plane, err = emu.StartControlPlane(z.Plane, tc, tr, nil); err != nil {
		return nil, err
	}
	for i := 0; i < z.Peers; i++ {
		pc := emu.DefaultPeerConfig(i, mode)
		pc.Seed = seed + int64(i)*7919
		pc.UplinkBps = unmodelled
		p, err := emu.NewPeerWithControlPlane(pc, tr, c.plane, nil)
		if err == nil {
			err = p.Start()
		}
		if err != nil {
			c.stop()
			return nil, err
		}
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// emuMode is what one protocol mode of a round measured.
type emuMode struct {
	Mode                                  string
	Requests, Failed, Sessions            int64
	Wall                                  time.Duration
	ReqUs                                 []float64 // per RequestVideo, cache hits excluded
	TurnUs                                []float64 // per session: SetOnline + FinishVideo + LeaveOverlays
	FinishUs, LeaveUs, OnlineUs           []float64 // per call
	Msgs, CacheHits, PeerHits, ServerHits int64
	ServerBytes, PeerBytes                int64
	RPCs                                  map[emu.MsgType]int64 // summed over the plane's trackers
	Counters                              obs.Counters          // plane and peers merged
}

func (m *emuMode) merge(o *emuMode) {
	m.Requests += o.Requests
	m.Failed += o.Failed
	m.Sessions += o.Sessions
	m.ReqUs = append(m.ReqUs, o.ReqUs...)
	m.TurnUs = append(m.TurnUs, o.TurnUs...)
	m.FinishUs = append(m.FinishUs, o.FinishUs...)
	m.LeaveUs = append(m.LeaveUs, o.LeaveUs...)
	m.OnlineUs = append(m.OnlineUs, o.OnlineUs...)
	m.Msgs += o.Msgs
	m.CacheHits += o.CacheHits
	m.PeerHits += o.PeerHits
	m.ServerHits += o.ServerHits
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// emuWorkload is the cluster builder and closed-loop driver both
// emulation workloads share.
type emuWorkload struct {
	sizes    emuSizes
	seed     int64
	tr       *trace.Trace
	picker   *vod.Picker
	clusters []*cluster
	generate time.Duration
	driven   bool // the clusters have served a round and are no longer fresh
}

func newEmuSteady(seed int64, quick bool) runner {
	z := emuSizes{Channels: 200, Categories: 10, Peers: 128, Sessions: 3, Videos: 10,
		Plane: emu.ControlPlaneConfig{Shards: 1, Replicas: 1},
		Modes: []emu.Mode{emu.ModeSocialTube, emu.ModeNetTube, emu.ModePAVoD}}
	if quick {
		z.Channels, z.Categories, z.Peers, z.Sessions, z.Videos = 40, 6, 8, 2, 3
	}
	return &emuWorkload{sizes: z, seed: seed}
}

func newEmuChurn(seed int64, quick bool) runner {
	plane := emu.DefaultControlPlaneConfig() // 2x2, gossip every 20 ms
	plane.RingSeed = seed
	z := emuSizes{Channels: 200, Categories: 10, Peers: 128, Sessions: 100, Videos: 1,
		Plane: plane, Modes: []emu.Mode{emu.ModeSocialTube}}
	if quick {
		z.Channels, z.Categories, z.Peers, z.Sessions = 40, 6, 8, 4
	}
	return &emuWorkload{sizes: z, seed: seed}
}

func (w *emuWorkload) setUp() error {
	s := figures.SmallScale()
	s.TraceChannels, s.TraceUsers, s.Categories, s.Seed = w.sizes.Channels, w.sizes.Peers, w.sizes.Categories, populationSeed
	start := time.Now()
	tr, err := s.BuildTrace()
	if err != nil {
		return err
	}
	w.generate = time.Since(start)
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		return err
	}
	w.tr, w.picker, w.driven = tr, picker, false
	for _, mode := range w.sizes.Modes {
		c, err := startCluster(w.sizes, mode, tr, w.seed)
		if err != nil {
			return err
		}
		w.clusters = append(w.clusters, c)
	}
	return nil
}

func (w *emuWorkload) population() *trace.Trace { return w.tr }

func (w *emuWorkload) tearDown() {
	for _, c := range w.clusters {
		c.stop()
	}
	w.clusters = nil
}

// drive runs the closed loop on one cluster: one driver goroutine per
// core, each walking its own share of the peers session by session, so
// at most nproc requests are in flight. A peer stays online, links and
// cache intact, between its visits; each visit starts with the session
// turnover (leave the old overlays, come back online) and then requests
// its videos back to back with no think time.
func (w *emuWorkload) drive(c *cluster) *emuMode {
	drivers := runtime.NumCPU()
	parts := make([]emuMode, drivers)
	users := w.tr.Users
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			m := &parts[d]
			rngs := map[int]*dist.RNG{}
			for i := d; i < len(c.peers); i += drivers {
				rngs[i] = dist.NewRNG(w.seed*1_000_003 + int64(i))
			}
			for s := 0; s < w.sizes.Sessions; s++ {
				for i := d; i < len(c.peers); i += drivers {
					p := c.peers[i]
					var turn time.Duration
					if s > 0 {
						t0 := time.Now()
						p.SetOnline(false)
						t1 := time.Now()
						p.LeaveOverlays()
						t2 := time.Now()
						m.OnlineUs = append(m.OnlineUs, us(t1.Sub(t0)))
						m.LeaveUs = append(m.LeaveUs, us(t2.Sub(t1)))
						turn += t2.Sub(t0)
					}
					t0 := time.Now()
					p.SetOnline(true)
					d0 := time.Since(t0)
					m.OnlineUs = append(m.OnlineUs, us(d0))
					turn += d0
					plan := w.picker.PlanSession(rngs[i], &users[i], w.sizes.Videos, time.Second)
					for _, v := range plan.Videos {
						t0 := time.Now()
						rec := p.RequestVideo(v)
						lat := time.Since(t0)
						m.Requests++
						m.Msgs += int64(rec.Messages)
						switch rec.Source {
						case vod.SourceCache:
							m.CacheHits++
						case vod.SourcePeer:
							m.PeerHits++
						default:
							m.ServerHits++
						}
						if rec.Source != vod.SourceCache {
							m.ReqUs = append(m.ReqUs, us(lat))
						}
						if rec.Failed {
							m.Failed++
						}
						t0 = time.Now()
						p.FinishVideo(v)
						fin := time.Since(t0)
						m.FinishUs = append(m.FinishUs, us(fin))
						turn += fin
					}
					m.Sessions++
					m.TurnUs = append(m.TurnUs, us(turn))
				}
			}
		}(d)
	}
	wg.Wait()
	out := &emuMode{Mode: c.mode.String(), Wall: time.Since(start), RPCs: map[emu.MsgType]int64{}}
	for i := range parts {
		out.merge(&parts[i])
	}
	out.ServerBytes = c.plane.ServedBytes()
	out.Counters = c.plane.Counters()
	for _, p := range c.peers {
		out.PeerBytes += p.ServedBytes()
		out.Counters.Merge(p.Counters())
	}
	for _, tk := range c.plane.Trackers() {
		for typ, n := range tk.Stats() {
			out.RPCs[typ] += n
		}
	}
	return out
}

func (w *emuWorkload) round(tr *tracing) (*round, error) {
	if w.driven { // a round starts from fresh clusters
		w.tearDown()
		if err := w.setUp(); err != nil {
			return nil, err
		}
	}
	w.driven = true
	r := &round{}
	for _, c := range w.clusters {
		sp := tr.start(c.mode.String())
		m := w.drive(c)
		tr.end(sp)
		r.Requests += m.Requests
		r.Failed += m.Failed
		r.Parts = append(r.Parts, part{m.Mode, m.Wall})
		if m.Failed != 0 {
			r.Gates = append(r.Gates, fmt.Sprintf("%s: %d of %d requests failed", m.Mode, m.Failed, m.Requests))
		}
		if m.Counters.RPCFailures != 0 {
			r.Gates = append(r.Gates, fmt.Sprintf("%s: %d tracker-path RPCs exhausted their retries", m.Mode, m.Counters.RPCFailures))
		}
		if got := m.CacheHits + m.PeerHits + m.ServerHits; got != m.Requests {
			r.Gates = append(r.Gates, fmt.Sprintf("%s: requests %d != cache+peer+server %d", m.Mode, m.Requests, got))
		}
		r.Modes = append(r.Modes, *m)
		lat := sorted(m.ReqUs)
		logf("  %-10s %6d req %7.3fs %8.0f req/s  p50 %6.0fus p99 %7.0fus (n=%d)  cache %d / peer %d / server %d",
			m.Mode, m.Requests, m.Wall.Seconds(), float64(m.Requests)/m.Wall.Seconds(),
			quantile(lat, 0.5), quantile(lat, 0.99), len(lat),
			m.CacheHits, m.PeerHits, m.ServerHits)
	}
	return r, nil
}

// pooled concatenates one sample series over a round's modes.
func pooled(r *round, pick func(*emuMode) []float64) []float64 {
	var all []float64
	for i := range r.Modes {
		all = append(all, pick(&r.Modes[i])...)
	}
	return sorted(all)
}

// acrossRounds is the median over rounds of a per-round statistic, with
// the first round's sample count.
func acrossRounds(rs []*round, stat func(*round) (float64, int)) (float64, int) {
	var vals []float64
	n := 0
	for i, r := range rs {
		v, c := stat(r)
		vals = append(vals, v)
		if i == 0 {
			n = c
		}
	}
	return median(vals), n
}

func (w *emuWorkload) report(rec *record, untraced, traced []*round) {
	setQ := func(name string, q float64, pick func(*emuMode) []float64) {
		v, n := acrossRounds(untraced, func(r *round) (float64, int) {
			s := pooled(r, pick)
			return quantile(s, q), len(s)
		})
		rec.set(name, v, n)
	}
	setQ("emu_req_p50_us", 0.5, func(m *emuMode) []float64 { return m.ReqUs })
	setQ("emu_req_p99_us", 0.99, func(m *emuMode) []float64 { return m.ReqUs })
	setQ("emu_turnover_p50_us", 0.5, func(m *emuMode) []float64 { return m.TurnUs })
	// Real bytes, pooled over the modes: 128 peers are too few for one
	// mode's share to hold still from seed to seed.
	var serverB, peerB int64
	for i := range untraced[0].Modes {
		serverB += untraced[0].Modes[i].ServerBytes
		peerB += untraced[0].Modes[i].PeerBytes
	}
	rec.set("server_byte_frac", ratio(float64(serverB), float64(serverB+peerB)), 0)
	rec.Notes = append(rec.Notes, "emu traffic is loopback TCP inside one process, injected latency and loss off")
	if traced == nil {
		return
	}
	rec.set("trace.generate_s", w.generate.Seconds(), 1)
	rec.set("trace.bytes_per_user", float64(w.tr.Bytes())/float64(len(w.tr.Users)), 0)
	setQ("emu.peer.finish_us", 0.5, func(m *emuMode) []float64 { return m.FinishUs })
	setQ("emu.peer.leave_us", 0.5, func(m *emuMode) []float64 { return m.LeaveUs })
	setQ("emu.peer.online_us", 0.5, func(m *emuMode) []float64 { return m.OnlineUs })

	var all emuMode
	var rpcs, serve, join, leave, sync int64
	var wall time.Duration
	for i := range traced[0].Modes {
		m := &traced[0].Modes[i]
		all.merge(m)
		all.Counters.Merge(m.Counters)
		wall += m.Wall
		for typ, n := range m.RPCs {
			switch typ {
			case emu.MsgSync:
				sync += n
				continue // tracker-to-tracker, not caused by a request
			case emu.MsgServe:
				serve += n
			case emu.MsgJoin, emu.MsgJoinVideo:
				join += n
			case emu.MsgLeave:
				leave += n
			}
			rpcs += n
		}
		s := sorted(m.ReqUs)
		name := "emu.peer.request_us." + strings.ToLower(strings.ReplaceAll(m.Mode, "-", ""))
		rec.set(name, quantile(s, 0.5), len(s))
	}
	req := float64(all.Requests)
	rec.set("emu.tracker.rpcs_per_req", ratio(float64(rpcs), req), 0)
	rec.set("emu.tracker.serve_per_req", ratio(float64(serve), req), 0)
	rec.set("emu.tracker.join_per_req", ratio(float64(join), req), 0)
	rec.set("emu.tracker.leave_per_session", ratio(float64(leave), float64(all.Sessions)), 0)
	rec.set("emu.tracker.sync_per_s", ratio(float64(sync), wall.Seconds()), 0)
	rec.set("emu.peer.msgs_per_req", ratio(float64(all.Msgs), req), 0)
	rec.set("emu.peer.peer_hit_frac", ratio(float64(all.PeerHits), req), 0)
	rec.set("emu.peer.cache_hit_frac", ratio(float64(all.CacheHits), req), 0)
	rec.set("emu.peer.rpc_failures", float64(all.Counters.RPCFailures), 0)
	rec.set("health.breaker_opens", float64(all.Counters.BreakerOpens), 0)
}
