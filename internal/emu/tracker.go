package emu

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/ctrl"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// TrackerConfig sets the central server's parameters.
type TrackerConfig struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// UplinkBps is the server's upload capacity; concurrent chunk serves
	// queue behind each other, reproducing server-overload delays.
	UplinkBps int64
	// Seed drives the tracker's random peer recommendations.
	Seed int64
	// ISPs partitions peers into that many ISPs for PA-VoD's
	// ISP-localized peer assistance (Huang et al.): watch-start
	// redirects only point at watchers in the requester's ISP. Values
	// below 2 disable locality.
	ISPs int
}

// DefaultTrackerConfig returns settings scaled for loopback experiments.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{
		Addr:      "127.0.0.1:0",
		UplinkBps: 8_000_000,
		Seed:      1,
	}
}

// Tracker is the central VoD server: it tracks overlay membership (channel
// overlays for SocialTube, per-video overlays for NetTube, current watchers
// for PA-VoD), recommends neighbours on join, publishes channel popularity
// lists and serves chunks from a finite uplink.
type Tracker struct {
	cfg  TrackerConfig
	tr   *trace.Trace
	cond *Conditions
	ep   *endpoint
	// cl is the tracker's one client, for gossip; StartGossip sets its
	// timeout.
	cl client

	// ctr is updated with atomics (some handlers touch it outside t.mu)
	// and read lock-free by the live metrics while the run is live.
	ctr obs.Counters

	// down simulates a tracker outage: requests are read and then
	// refused unanswered, so clients fail fast with EOF.
	down atomic.Bool

	mu sync.Mutex
	g  *dist.RNG
	// Membership state lives in replicated, versioned tables (tombstoned
	// departures, last-writer-wins merge) so shard replicas reconcile by
	// anti-entropy gossip. The tables are the tracker's only peer state;
	// each locks itself, so t.mu guards only g, the uplink queue and the
	// request counts. Live() hands handlers an id -> addr map and every
	// selection goes through a sorted view.
	//
	// channels: online SocialTube members per channel overlay. Membership
	// is exclusive — a peer's home is one channel, so registering it under
	// a new channel tombstones it everywhere else (stale entries used to
	// outlive a home switch and feed dead recommendations).
	channels *ctrl.MemberTable
	// videos: online NetTube members per per-video overlay.
	videos *ctrl.MemberTable
	// watchers: PA-VoD current watchers per video.
	watchers *ctrl.MemberTable
	// busyUntil models the FIFO uplink queue (simnet.Reserve on offsets
	// from epoch, a monotonic clock).
	epoch     time.Time
	busyUntil time.Duration
	// servedBytes counts bytes the server shipped.
	servedBytes int64
	// requests counts handled messages by type (observability).
	requests map[MsgType]int64
	// byCat indexes channels by primary category.
	byCat map[trace.CategoryID][]trace.ChannelID

	// live is the plane failure detector (nil on 1-shard planes and
	// standalone trackers). takeoverSince is the wall time the run's
	// whole-shard outage began (0 until ControlPlane.ArmTakeover);
	// declaredNano latches this replica's first shard death verdict at or
	// after it — the takeover figure's time-to-takeover numerator.
	// Verdicts before the outage are false suspicions and must not
	// consume the latch.
	live          atomic.Pointer[ctrl.Liveness]
	takeoverSince atomic.Int64
	declaredNano  atomic.Int64
	// side is this replica's partition side id (its replica index), read
	// by the receive path's partition backstop.
	side atomic.Int32
}

// gossipPeer is one cross-shard gossip partner.
type gossipPeer struct {
	addr    string
	replica int
}

// defaultSuspicionRounds is how many of a replica's own gossip rounds
// every beat of a shard must stay frozen before the shard is declared
// dead. Rounds, not wall-clock: detection latency is deterministic in
// the gossip schedule.
const defaultSuspicionRounds = 5

// joinPeers bounds how many neighbours one join response recommends.
const joinPeers = 12

// tombstoneHorizon is the version-clock age past which gossiping replicas
// compact tombstones — thousands of ticks against per-round divergence of
// at most a few hundred writes (see ctrl.MemberTable.CompactTombstones).
// Only replicas with gossip configured compact: a standalone tracker never
// ships snapshots, so its tombstones cost nothing on the wire.
const tombstoneHorizon = 1 << 12

// NewTracker builds a tracker over the trace. Call Start to begin serving.
func NewTracker(cfg TrackerConfig, tr *trace.Trace, cond *Conditions) (*Tracker, error) {
	if tr == nil || len(tr.Videos) == 0 {
		return nil, fmt.Errorf("%w: tracker needs a non-empty trace", dist.ErrBadParameter)
	}
	if cfg.UplinkBps <= 0 {
		return nil, fmt.Errorf("%w: tracker config %+v", dist.ErrBadParameter, cfg)
	}
	t := &Tracker{
		cfg:      cfg,
		tr:       tr,
		cond:     cond,
		g:        dist.NewRNG(cfg.Seed),
		epoch:    time.Now(),
		channels: ctrl.NewMemberTable(0),
		videos:   ctrl.NewMemberTable(0),
		watchers: ctrl.NewMemberTable(0),
		requests: make(map[MsgType]int64),
		byCat:    make(map[trace.CategoryID][]trace.ChannelID),
	}
	for _, ch := range tr.Channels {
		t.byCat[ch.Primary] = append(t.byCat[ch.Primary], ch.ID)
	}
	t.ep = newEndpoint(-1, cond, trackerHandleBudget, &t.ctr, t.admit, t.serve)
	return t, nil
}

// Start begins listening and serving requests.
func (t *Tracker) Start() error {
	if err := t.ep.start(t.cfg.Addr); err != nil {
		return fmt.Errorf("tracker listen: %w", err)
	}
	return nil
}

// StartGossip turns on anti-entropy for replica (shard, replica) of the
// plane: plane lists every shard's replica endpoints in order (this
// replica included), and cfg gives the ring seed, the gossip period and
// timeout and the suspicion rounds (zero selects each default). Every
// period the replica exchanges full membership snapshots with one
// seeded-rotation shard sibling, and — on multi-shard planes — liveness
// (heartbeat versions, shard-status verdicts, the ring epoch) with one
// seeded-rotation replica of another shard, so any survivor can declare a
// whole shard dead after the suspicion rounds of its own rounds and the
// verdict gossips plane-wide. The per-shard gossip seed is derived as
// seed + shard*7919, preserving the schedule the sharded control plane
// has always used. Call after every replica of the plane has Started and
// before peers join, so the tables' version stamps carry the replica id
// from the first write. A replica with no partner at all (the 1x1 plane)
// has nobody to gossip with and starts no loop.
func (t *Tracker) StartGossip(cfg ControlPlaneConfig, plane [][]string, shard, replica int) {
	t.channels.SetNode(replica)
	t.videos.SetNode(replica)
	t.watchers.SetNode(replica)
	t.side.Store(int32(replica))
	if shard < 0 || shard >= len(plane) {
		return
	}
	eff := cfg.RingSeed + int64(shard)*7919
	g := ctrl.NewGossiper(eff, replica, len(plane[shard]))
	var others []gossipPeer
	if len(plane) > 1 {
		for s, reps := range plane {
			if s == shard {
				continue
			}
			for r, addr := range reps {
				others = append(others, gossipPeer{addr: addr, replica: r})
			}
		}
		sus := cfg.SuspicionRounds
		if sus <= 0 {
			sus = defaultSuspicionRounds
		}
		t.live.Store(ctrl.NewLiveness(len(plane), shard, replica, sus))
	}
	if g == nil && len(others) == 0 {
		return
	}
	interval, timeout := cfg.GossipInterval, cfg.GossipTimeout
	if interval <= 0 {
		interval = DefaultControlPlaneConfig().GossipInterval
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	t.cl.timeout = timeout
	next := 0
	if len(others) > 0 {
		// Seeded rotation start, like ctrl.NewGossiper's, so replicas
		// spread their cross-shard probes instead of thundering.
		next = dist.NewRNG(eff ^ int64(replica)*104_729).Intn(len(others))
	}
	t.ep.wg.Add(1)
	go t.gossipLoop(interval, replica, slices.Clone(plane[shard]), g, others, next)
}

// gossipLoop drives the replica's anti-entropy rounds until Stop. A
// replica in a simulated outage neither initiates nor (via admit's down
// check) answers exchanges — its beats freeze everywhere, which is
// exactly the signal the suspicion timeout turns into a death verdict.
// Partition windows sever rounds at the sender: both gossip legs know
// their partner's replica index, so a cut exchange is skipped outright
// and the two sides' views diverge until heal. The loop owns its
// schedule: replica self's shard siblings sibs in g's rotation and the
// other shards' endpoints others from cursor next.
func (t *Tracker) gossipLoop(interval time.Duration, self int, sibs []string, g *ctrl.Gossiper, others []gossipPeer, next int) {
	defer t.ep.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.ep.done:
			return
		case <-ticker.C:
		}
		if t.down.Load() {
			continue
		}
		sibIdx := -1
		if g != nil {
			sibIdx = g.Next()
		}
		if live := t.live.Load(); live != nil {
			t.noteTransitions(live.Tick(), nil, time.Now().UnixNano())
		}
		if sibIdx >= 0 && !t.cond.Severed(self, sibIdx) {
			req := &Message{Type: MsgSync, From: -1, Sync: t.syncSnapshot()}
			t.attachLiveness(req)
			if resp, err := t.cl.rpc(sibs[sibIdx], req); err == nil && resp.Type == MsgOK {
				t.syncMerge(resp.Sync)
				t.mergeLiveness(resp)
			}
		}
		if len(others) > 0 {
			cross := others[next%len(others)]
			next++
			if t.live.Load() != nil && !t.cond.Severed(self, cross.replica) {
				req := &Message{Type: MsgSync, From: -1}
				t.attachLiveness(req)
				if resp, err := t.cl.rpc(cross.addr, req); err == nil && resp.Type == MsgOK {
					t.mergeLiveness(resp)
				}
			}
		}
		t.compactTables()
	}
}

// attachLiveness piggybacks the detector's state on a sync exchange.
func (t *Tracker) attachLiveness(m *Message) {
	live := t.live.Load()
	if live == nil {
		return
	}
	m.Beats = live.Beats()
	m.Status = live.Status()
	m.Epoch = int64(live.Epoch())
}

// mergeLiveness folds a partner's piggybacked liveness in and accounts
// the transitions it caused.
func (t *Tracker) mergeLiveness(m *Message) {
	live := t.live.Load()
	if live == nil || (len(m.Beats) == 0 && len(m.Status) == 0 && m.Epoch == 0) {
		return
	}
	revived := live.MergeBeats(m.Beats)
	died, revived2 := live.MergeStatus(m.Status, uint64(m.Epoch))
	t.noteTransitions(died, append(revived, revived2...), time.Now().UnixNano())
}

// noteTransitions accounts shard death/revival verdicts this replica
// observed at wall time now (locally declared or adopted from gossip) and
// timestamps the first death of an armed outage for the takeover figure.
func (t *Tracker) noteTransitions(died, revived []int, now int64) {
	if len(died) > 0 {
		atomic.AddUint64(&t.ctr.ShardsDeclaredDead, uint64(len(died)))
		if since := t.takeoverSince.Load(); since != 0 && now >= since {
			t.declaredNano.CompareAndSwap(0, now)
		}
	}
	if len(revived) > 0 {
		atomic.AddUint64(&t.ctr.ShardsRevived, uint64(len(revived)))
	}
}

// compactTables garbage-collects membership tombstones past the horizon.
// Runs once per gossip round, so only replicas that gossip compact.
func (t *Tracker) compactTables() {
	t.channels.CompactTombstones(tombstoneHorizon)
	t.videos.CompactTombstones(tombstoneHorizon)
	t.watchers.CompactTombstones(tombstoneHorizon)
}

// Membership table names on the wire.
const (
	syncTableChannels = "channels"
	syncTableVideos   = "videos"
	syncTableWatchers = "watchers"
)

// syncSnapshot captures every membership table in wire form.
func (t *Tracker) syncSnapshot() []ctrl.TableSync {
	return []ctrl.TableSync{
		{Table: syncTableChannels, Recs: t.channels.Snapshot()},
		{Table: syncTableVideos, Recs: t.videos.Snapshot()},
		{Table: syncTableWatchers, Recs: t.watchers.Snapshot()},
	}
}

// syncMerge folds a sibling's snapshot into the local tables. Unknown
// table names are skipped (wire compatibility across versions).
func (t *Tracker) syncMerge(ts []ctrl.TableSync) {
	for _, s := range ts {
		switch s.Table {
		case syncTableChannels:
			t.channels.Merge(s.Recs)
		case syncTableVideos:
			t.videos.Merge(s.Recs)
		case syncTableWatchers:
			t.watchers.Merge(s.Recs)
		}
	}
}

// handleSync is the receiving half of a push-pull round: merge the
// sender's snapshot and liveness, answer with ours. A liveness-only
// request (no tables — the cross-shard leg) gets a liveness-only reply,
// so cross-shard exchanges never ship membership snapshots.
func (t *Tracker) handleSync(req *Message) *Message {
	t.mergeLiveness(req)
	resp := &Message{Type: MsgOK, From: -1}
	if len(req.Sync) > 0 {
		t.syncMerge(req.Sync)
		resp.Sync = t.syncSnapshot()
	}
	t.attachLiveness(resp)
	return resp
}

// Addr returns the tracker's listen address (valid after Start).
func (t *Tracker) Addr() string { return t.ep.addr() }

// Stop shuts the tracker down, waits for its goroutines and closes its
// connections.
func (t *Tracker) Stop() { t.ep.stop(); t.cl.closeAll() }

// SetDown starts (true) or ends (false) a simulated outage. While down the
// tracker accepts connections and reads requests but answers none: it
// closes the connection, so clients read EOF at once — the failure mode
// retry with backoff is designed for.
func (t *Tracker) SetDown(v bool) {
	t.down.Store(v)
}

// Counters returns a snapshot of the tracker's protocol counters.
func (t *Tracker) Counters() obs.Counters {
	return t.ctr.Snapshot()
}

// ServedBytes returns the bytes shipped by the server so far.
func (t *Tracker) ServedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.servedBytes
}

// trackerHandleBudget bounds one request exchange end to end; chunk
// serves queued beyond it time out exactly as an overloaded server's
// clients would observe.
const trackerHandleBudget = 10 * time.Second

// admit is the endpoint's reachability check: in a simulated outage the
// request is refused unanswered (the caller reads EOF, not a timeout), and
// a partitioned peer is on the other side of the cut.
func (t *Tracker) admit(req *Message) bool {
	return !t.down.Load() && !(req.From >= 0 && t.cond.Severed(req.From, int(t.side.Load())))
}

// serve dispatches req and rides the current ring view on the response,
// so peers learn about takeovers from ordinary traffic. Epoch 0 (healthy
// plane or liveness off) stamps nothing.
func (t *Tracker) serve(req *Message) *Message {
	resp := t.dispatch(req)
	if live := t.live.Load(); live != nil {
		if e := live.Epoch(); e > 0 {
			resp.Epoch = int64(e)
			resp.DeadShards = live.DeadMask()
		}
	}
	return resp
}

// Stats returns how many requests the tracker handled, by message type.
func (t *Tracker) Stats() map[MsgType]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[MsgType]int64, len(t.requests))
	for k, v := range t.requests {
		out[k] = v
	}
	return out
}

// TrackerMetrics is the tracker's live observability snapshot, served as
// JSON from the /metrics endpoint while an emulated cluster runs.
type TrackerMetrics struct {
	Peers          int               `json:"peers"`
	ServedBytes    int64             `json:"servedBytes"`
	RequestsByType map[MsgType]int64 `json:"requestsByType"`
	Counters       obs.Counters      `json:"counters"`
}

// metricsOf merges the live metrics of trackers: peers is the number of
// distinct ids with a live row in any of their member tables. Safe to
// call from any goroutine while the trackers serve.
func metricsOf(trackers ...*Tracker) TrackerMetrics {
	m := TrackerMetrics{RequestsByType: make(map[MsgType]int64)}
	ids := make(map[int]bool)
	for _, t := range trackers {
		for k, v := range t.Stats() {
			m.RequestsByType[k] += v
		}
		m.ServedBytes += t.ServedBytes()
		m.Counters.Merge(t.Counters())
		for _, s := range t.syncSnapshot() {
			for _, r := range s.Recs {
				if !r.Dead {
					ids[r.ID] = true
				}
			}
		}
	}
	m.Peers = len(ids)
	return m
}

// ServeMetrics exposes this tracker's live metrics on addr (and the pprof
// handlers when enabled). The caller owns the returned server's lifetime.
func (t *Tracker) ServeMetrics(addr string, pprofEnabled bool) (*obs.MetricsServer, error) {
	return obs.ServeMetrics(addr, func() any { return metricsOf(t) }, nil, pprofEnabled)
}

func (t *Tracker) dispatch(req *Message) *Message {
	t.mu.Lock()
	t.requests[req.Type]++
	t.mu.Unlock()
	switch req.Type {
	case MsgJoin:
		return t.handleJoin(req)
	case MsgJoinVideo:
		return t.handleJoinVideo(req)
	case MsgLeave:
		return t.handleLeave(req)
	case MsgServe:
		return t.handleServe(req)
	case MsgTopList:
		return t.handleTopList(req)
	case MsgWatchStart:
		return t.handleWatchStart(req)
	case MsgWatchDone:
		return t.handleWatchDone(req)
	case MsgHave:
		return t.handleHave(req)
	case MsgSync:
		return t.handleSync(req)
	default:
		return &Message{Type: MsgMiss, From: -1}
	}
}

// handleJoin registers a SocialTube peer in a channel overlay and
// recommends a random member of that overlay plus a random member per
// sibling channel in the category (§IV-A's join assist).
func (t *Tracker) handleJoin(req *Message) *Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := trace.ChannelID(req.Channel)
	chn := t.tr.Channel(ch)
	if chn == nil {
		return &Message{Type: MsgMiss, From: -1}
	}
	atomic.AddUint64(&t.ctr.OverlayJoins, 1)
	resp := &Message{Type: MsgJoinOK, From: -1}
	// One random member of the channel overlay itself.
	resp.Peers = t.pickLocked(t.channels.Live(int64(ch)), req.From, 1, int(ch))
	// Subscribers become members; non-subscribers only get category
	// recommendations (TTL doubles as the member flag: the peer sets
	// TTL=1 when it wants membership). Membership is exclusive:
	// a peer whose home moved is tombstoned under its previous channel,
	// so it is never again recommended for an overlay it left (it would
	// reject the inner link, wasting the requester's entry point).
	if req.TTL > 0 {
		t.channels.PutExclusive(int64(ch), req.From, req.Addr)
	}
	// One random member per sibling channel of the category.
	cat := chn.Primary
	chans := t.byCat[cat]
	perm := t.g.Perm(len(chans))
	for _, idx := range perm {
		if len(resp.Peers) >= joinPeers {
			break
		}
		sib := chans[idx]
		if sib == ch {
			continue
		}
		resp.Peers = append(resp.Peers, t.pickLocked(t.channels.Live(int64(sib)), req.From, 1, int(sib))...)
	}
	return resp
}

// handleJoinVideo registers a NetTube peer in a per-video overlay and
// returns up to joinPeers current members to connect to, from a seeded
// rotation so newcomers spread over the overlay (the simulator draws
// Members.Random).
func (t *Tracker) handleJoinVideo(req *Message) *Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := trace.VideoID(req.Video)
	if t.tr.Video(v) == nil {
		return &Message{Type: MsgMiss, From: -1}
	}
	atomic.AddUint64(&t.ctr.OverlayJoins, 1)
	resp := &Message{Type: MsgJoinOK, From: -1}
	resp.Peers = t.pickLocked(t.videos.Live(int64(v)), req.From, joinPeers, req.Video)
	t.videos.Put(int64(v), req.From, req.Addr)
	return resp
}

func (t *Tracker) handleLeave(req *Message) *Message {
	atomic.AddUint64(&t.ctr.OverlayLeaves, 1)
	// Tombstones, not deletions: gossip carries the departure to the
	// shard's other replicas instead of letting them resurrect the peer.
	t.channels.RemoveEverywhere(req.From)
	t.videos.RemoveEverywhere(req.From)
	t.watchers.RemoveEverywhere(req.From)
	return &Message{Type: MsgOK, From: -1}
}

// handleServe ships one chunk from the server's finite uplink. The response
// is delayed by the FIFO queue occupancy plus transmission time, so an
// overloaded server exhibits the growing startup delays of Fig. 17.
func (t *Tracker) handleServe(req *Message) *Message {
	if t.tr.Video(trace.VideoID(req.Video)) == nil {
		return &Message{Type: MsgMiss, From: -1}
	}
	t.mu.Lock()
	now := time.Since(t.epoch)
	t.busyUntil = simnet.Reserve(t.busyUntil, now, chunkPayloadBytes, t.cfg.UplinkBps)
	wait := t.busyUntil - now
	t.servedBytes += chunkPayloadBytes
	t.mu.Unlock()
	atomic.AddUint64(&t.ctr.ChunksServer, 1)
	time.Sleep(wait)
	return &Message{
		Type:    MsgOK,
		From:    -1,
		Video:   req.Video,
		Chunk:   req.Chunk,
		Payload: chunkPayload,
	}
}

// handleTopList returns the ids of the channel's most popular videos — the
// popularity list the server publishes for prefetching (§IV-B).
func (t *Tracker) handleTopList(req *Message) *Message {
	ch := t.tr.Channel(trace.ChannelID(req.Channel))
	if ch == nil {
		return &Message{Type: MsgMiss, From: -1}
	}
	n := req.TTL // the requested list length rides in TTL
	if n <= 0 || n > len(ch.Videos) {
		n = len(ch.Videos)
	}
	vids := make([]int, 0, n)
	for _, v := range ch.Videos[:n] {
		vids = append(vids, int(v))
	}
	return &Message{Type: MsgOK, From: -1, Videos: vids}
}

// handleWatchStart registers a PA-VoD watcher and points it at another
// current watcher if one exists.
func (t *Tracker) handleWatchStart(req *Message) *Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := trace.VideoID(req.Video)
	if t.tr.Video(v) == nil {
		return &Message{Type: MsgMiss, From: -1}
	}
	resp := &Message{Type: MsgOK, From: -1, Provider: -1}
	candidates := t.watchers.Live(int64(v)) // a fresh map: ours to filter
	maps.DeleteFunc(candidates, func(id int, _ string) bool { return !vod.SameISP(id, req.From, t.cfg.ISPs) })
	atomic.AddUint64(&t.ctr.LookupsServer, 1)
	// Rank up to maxQueryProviders current watchers, so one death doesn't
	// force a round-trip back here.
	if resp.Providers = t.pickLocked(candidates, req.From, maxQueryProviders, 0); len(resp.Providers) > 0 {
		resp.Provider = resp.Providers[0].ID
		resp.ProviderAddr = resp.Providers[0].Addr
		atomic.AddUint64(&t.ctr.HitsServerAssist, 1)
	}
	t.watchers.Put(int64(v), req.From, req.Addr)
	return resp
}

func (t *Tracker) handleWatchDone(req *Message) *Message {
	t.watchers.Remove(int64(req.Video), req.From)
	return &Message{Type: MsgOK, From: -1}
}

// handleHave records that a NetTube peer caches a video (so the server can
// direct first requests at it).
func (t *Tracker) handleHave(req *Message) *Message {
	v := trace.VideoID(req.Video)
	if t.tr.Video(v) == nil {
		return &Message{Type: MsgMiss, From: -1}
	}
	t.videos.Put(int64(v), req.From, req.Addr)
	return &Message{Type: MsgOK, From: -1}
}

// pickLocked is every member pick the tracker makes: up to n members of m
// other than exclude, stamped with channel, read from a seeded rotation of
// the id-sorted view — one g.Intn per non-empty pick, and the sort keeps
// Go's random map order from reaching the answer. The caller must hold
// t.mu.
func (t *Tracker) pickLocked(m map[int]string, exclude, n, channel int) []PeerInfo {
	ids := make([]int, 0, len(m))
	for id := range m {
		if id != exclude {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	off := t.g.Intn(len(ids))
	out := make([]PeerInfo, min(n, len(ids)))
	for i := range out {
		id := ids[(off+i)%len(ids)]
		out[i] = PeerInfo{ID: id, Addr: m[id], Channel: channel}
	}
	return out
}
