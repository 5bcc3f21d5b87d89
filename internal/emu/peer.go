package emu

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/health"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// maxQueryProviders caps the ranked candidate list a flood response
// carries: enough for two mid-stream handoffs before a re-query.
const maxQueryProviders = 3

// Mode selects which protocol a peer speaks.
type Mode int

// Protocol modes.
const (
	// ModeSocialTube runs the paper's hierarchical per-community
	// protocol.
	ModeSocialTube Mode = iota + 1
	// ModeNetTube runs per-video overlays with a session cache.
	ModeNetTube
	// ModePAVoD runs server-directed peer assistance without caching.
	ModePAVoD
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSocialTube:
		return "SocialTube"
	case ModeNetTube:
		return "NetTube"
	case ModePAVoD:
		return "PA-VoD"
	default:
		return "unknown"
	}
}

// PeerConfig sets one peer's parameters.
type PeerConfig struct {
	// ID is the node's id (its user id in the trace).
	ID int
	// Mode selects the protocol.
	Mode Mode
	// Addr is the listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// InnerLinks (N_l), InterLinks (N_h) bound SocialTube link budgets.
	InnerLinks int
	InterLinks int
	// LinksPerOverlay bounds NetTube per-video overlay links.
	LinksPerOverlay int
	// TTL bounds query forwarding.
	TTL int
	// PrefetchCount is the number of first chunks to prefetch.
	PrefetchCount int
	// UplinkBps is the peer's upload capacity.
	UplinkBps int64
	// RPCTimeout bounds each peer-to-peer RPC.
	RPCTimeout time.Duration
	// MaxRetries bounds additional attempts for tracker-path RPCs
	// (0 disables retrying); RetryBackoff is the initial delay between
	// attempts, doubled per retry.
	MaxRetries   int
	RetryBackoff time.Duration
	// BreakerOpenFor is how long the per-neighbour circuit breaker stays
	// open after health.Threshold consecutive failures (0 selects
	// health.DefaultConfig).
	BreakerOpenFor time.Duration
	// Seed drives the peer's random choices.
	Seed int64
}

// DefaultPeerConfig returns the simulator's protocol defaults
// (core.DefaultConfig: Table I's N_l, N_h, TTL and M; health.DefaultConfig's
// breaker window) with transport settings scaled for loopback runs.
func DefaultPeerConfig(id int, mode Mode) PeerConfig {
	table1 := core.DefaultConfig()
	return PeerConfig{
		ID:         id,
		Mode:       mode,
		Addr:       "127.0.0.1:0",
		InnerLinks: table1.InnerLinks,
		InterLinks: table1.InterLinks,
		// The simulator's NetTube bound is 6 (baseline.DefaultNetTubeConfig):
		// a DESIGN.md §2 divergence.
		LinksPerOverlay: 4,
		TTL:             table1.TTL,
		PrefetchCount:   table1.PrefetchCount,
		UplinkBps:       4_000_000,
		RPCTimeout:      3 * time.Second,
		MaxRetries:      2,
		RetryBackoff:    5 * time.Millisecond,
		BreakerOpenFor:  health.DefaultConfig().OpenFor,
		Seed:            int64(id) + 1,
	}
}

// Validate reports the first problem with the configuration.
func (c PeerConfig) Validate() error {
	switch {
	case c.Mode < ModeSocialTube || c.Mode > ModePAVoD:
		return fmt.Errorf("%w: mode=%d", dist.ErrBadParameter, c.Mode)
	case c.InnerLinks <= 0 || c.InterLinks < 0 || c.LinksPerOverlay <= 0:
		return fmt.Errorf("%w: link budgets", dist.ErrBadParameter)
	case c.TTL <= 0:
		return fmt.Errorf("%w: ttl=%d", dist.ErrBadParameter, c.TTL)
	case c.PrefetchCount < 0:
		return fmt.Errorf("%w: prefetchCount=%d", dist.ErrBadParameter, c.PrefetchCount)
	case c.UplinkBps <= 0:
		return fmt.Errorf("%w: uplinkBps=%d", dist.ErrBadParameter, c.UplinkBps)
	case c.RPCTimeout <= 0:
		return fmt.Errorf("%w: rpcTimeout=%v", dist.ErrBadParameter, c.RPCTimeout)
	case c.MaxRetries < 0 || c.RetryBackoff < 0:
		return fmt.Errorf("%w: retry policy", dist.ErrBadParameter)
	case c.BreakerOpenFor < 0:
		return fmt.Errorf("%w: breakerOpenFor=%v", dist.ErrBadParameter, c.BreakerOpenFor)
	}
	return nil
}

// Peer is one TCP node. Start it, drive it with RequestVideo/FinishVideo,
// and Stop it to release all goroutines.
type Peer struct {
	cfg  PeerConfig
	tr   *trace.Trace
	cond *Conditions
	cp   *ControlPlane
	ep   *endpoint
	// cl is the peer's one client: every RPC it makes goes through it.
	cl client
	// crashed marks an abrupt failure: the process is alive but drops
	// every incoming message, exactly like a host that lost power —
	// neighbors keep dangling links until their probes time out.
	crashed atomic.Bool
	// ctr counts protocol events (atomic fields; see Counters).
	ctr obs.Counters
	// peers short-circuits RPCs to neighbours that keep failing; replicas
	// does the same for control-plane endpoints, keyed by the plane's
	// flat endpoint index, so the failover walk skips replicas known dark.
	peers    *guard
	replicas *guard

	// planeMu guards the peer's routing view of the control plane: the
	// highest ring epoch seen on a tracker response and the dead-shard
	// mask that came with it. joinedEpoch (under p.mu) tracks the epoch
	// the current home-channel registration was made under, so an epoch
	// change triggers re-registration with the adopting shard.
	planeMu    sync.Mutex
	planeEpoch int64
	planeDead  uint64

	// hintMu guards the hinted-handoff queue: the replica addresses the
	// leave broadcast could not reach, owed this peer's leave on heal.
	hintMu sync.Mutex
	hints  []string

	mu     sync.Mutex
	g      *dist.RNG
	cache  *vod.Cache
	subs   map[trace.ChannelID]bool
	online bool
	// watching is the video currently being watched (-1 when idle);
	// PA-VoD peers serve the video they are watching even though they
	// keep no cache.
	watching trace.VideoID
	// links holds every overlay link (SocialTube's inner/inter sets and
	// home channel, NetTube's per-video overlays) and their budgets.
	links *linkTable
	// joinedEpoch is the ring epoch the current home registration was
	// made under; attachChannel re-joins when the plane's epoch moves.
	joinedEpoch int64
	// Uplink queue (simnet.Reserve on offsets from epoch, the clock the
	// breakers also read) + accounting.
	epoch       time.Time
	busyUntil   time.Duration
	servedBytes int64
	// onChunk, when set (figure/test harnesses), observes every chunk
	// this peer receives while fetching a video.
	onChunk func(v trace.VideoID, chunk, provider int)
}

// NewPeerWithControlPlane builds a peer over the trace, routing every
// tracker-path RPC through the control plane's shard routing. Call
// Start before use.
func NewPeerWithControlPlane(cfg PeerConfig, tr *trace.Trace, cp *ControlPlane, cond *Conditions) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("peer config: %w", err)
	}
	if tr == nil || len(tr.Videos) == 0 {
		return nil, fmt.Errorf("%w: peer needs a non-empty trace", dist.ErrBadParameter)
	}
	if cp == nil {
		return nil, fmt.Errorf("%w: peer needs a control plane", dist.ErrBadParameter)
	}
	p := &Peer{
		cfg:      cfg,
		tr:       tr,
		cond:     cond,
		cp:       cp,
		cl:       client{timeout: cfg.RPCTimeout},
		g:        dist.NewRNG(cfg.Seed),
		online:   true,
		watching: -1,
		cache:    vod.NewCache(0),
		subs:     make(map[trace.ChannelID]bool),
		links:    newLinkTable(cfg),
		epoch:    time.Now(),
	}
	p.peers, p.replicas = newGuard(cfg, p.epoch, &p.cl), newGuard(cfg, p.epoch, &p.cl)
	// A few RPC timeouts per exchange: a stalled client cannot pin a
	// handler, yet legitimately queued chunk transfers are not cut off.
	p.ep = newEndpoint(cfg.ID, cond, 4*cfg.RPCTimeout, &p.ctr, p.admit, p.dispatch)
	if u := tr.User(trace.UserID(cfg.ID)); u != nil {
		for _, ch := range u.Subscriptions {
			p.subs[ch] = true
		}
	}
	return p, nil
}

// Start begins listening. A peer tells the tracker nothing until its
// first request joins an overlay.
func (p *Peer) Start() error {
	if err := p.ep.start(p.cfg.Addr); err != nil {
		return fmt.Errorf("peer %d listen: %w", p.cfg.ID, err)
	}
	return nil
}

// broadcastLeave sends this peer's leave to every replica of every shard,
// shard-major: any replica may hold membership rows for it, so a leave is
// the plane's one plane-wide write. A replica across an open partition
// cut is skipped outright, and any replica the leave does not reach is
// owed it as a hinted handoff, replayed on heal.
func (p *Peer) broadcastLeave() {
	leave := &Message{Type: MsgLeave, From: p.cfg.ID}
	for s := 0; s < p.cp.NumShards(); s++ {
		for r, addr := range p.cp.Replicas(s) {
			if p.cond.Severed(p.cfg.ID, r) {
				p.queueHint(addr)
			} else if _, err := p.cl.rpc(addr, leave); err != nil {
				p.queueHint(addr)
			}
		}
	}
}

// queueHint records that addr is owed this peer's leave; an address
// already owed it is not queued twice.
func (p *Peer) queueHint(addr string) {
	p.hintMu.Lock()
	defer p.hintMu.Unlock()
	if slices.Contains(p.hints, addr) {
		return
	}
	p.hints = append(p.hints, addr)
	atomic.AddUint64(&p.ctr.HintsQueued, 1)
}

// ReplayHints redelivers the leave to every replica owed it, keeping the
// ones that still fail queued. The cluster's fault driver calls it when a
// partition heals; anti-entropy gossip then spreads the replayed leaves
// to the replicas that were dark rather than severed.
func (p *Peer) ReplayHints() {
	p.hintMu.Lock()
	pending := p.hints
	p.hints = nil
	p.hintMu.Unlock()
	leave := &Message{Type: MsgLeave, From: p.cfg.ID}
	for _, addr := range pending {
		if _, err := p.cl.rpc(addr, leave); err != nil {
			p.hintMu.Lock()
			if !slices.Contains(p.hints, addr) {
				p.hints = append(p.hints, addr)
			}
			p.hintMu.Unlock()
			continue
		}
		atomic.AddUint64(&p.ctr.HintsReplayed, 1)
	}
}

// observePlane folds an epoch-stamped tracker response into the routing
// view: a strictly newer epoch replaces the dead-shard mask. Healthy
// planes stamp nothing, so the view stays (0, 0).
func (p *Peer) observePlane(resp *Message) {
	if resp == nil || resp.Epoch == 0 {
		return
	}
	p.planeMu.Lock()
	if resp.Epoch > p.planeEpoch {
		p.planeEpoch = resp.Epoch
		p.planeDead = resp.DeadShards
	}
	p.planeMu.Unlock()
}

// planeView returns the peer's current (ring epoch, dead-shard mask).
func (p *Peer) planeView() (int64, uint64) {
	p.planeMu.Lock()
	defer p.planeMu.Unlock()
	return p.planeEpoch, p.planeDead
}

// Addr returns the peer's listen address (valid after Start).
func (p *Peer) Addr() string { return p.ep.addr() }

// Stop closes the listener, waits for all handler goroutines and closes
// the peer's connections.
func (p *Peer) Stop() { p.ep.stop(); p.cl.closeAll() }

// ServedBytes returns the bytes this peer uploaded to others.
func (p *Peer) ServedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.servedBytes
}

// Links returns the node's total link count (its maintenance overhead).
func (p *Peer) Links() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.links.count()
}

// CacheLen returns the number of fully cached videos.
func (p *Peer) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cache.FullLen()
}

// Counters snapshots the peer's protocol counters, folding in the
// current breaker statistics.
func (p *Peer) Counters() obs.Counters {
	c := p.ctr.Snapshot()
	p.peers.addStats(&c)
	p.replicas.addStats(&c)
	return c
}

// SetOnline flips the peer's availability: an offline peer's listener stays
// bound (the process is alive) but it answers every protocol request
// negatively, as a logged-off user would.
func (p *Peer) SetOnline(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.online = v
}

// Crash takes the peer down abruptly: unlike SetOnline(false) + LeaveOverlays
// it sends no Bye and no Leave, so the tracker and every neighbor keep stale
// references to it until probing notices. The listener stays bound (the port
// is held) but every incoming message is dropped on the floor.
func (p *Peer) Crash() {
	p.crashed.Store(true)
}

// IsCrashed reports whether the peer is currently crashed.
func (p *Peer) IsCrashed() bool {
	return p.crashed.Load()
}

// Rejoin brings a crashed peer back: its link state is gone (a restarted
// process holds no sockets) but its cache survived on disk. The peer
// replays the leaves it still owes and, under SocialTube, re-seeds its
// prefetch prefixes from its home channel's popularity list (§IV-B
// re-seeding); its next request re-joins an overlay.
func (p *Peer) Rejoin() {
	if !p.crashed.Swap(false) {
		return
	}
	p.mu.Lock()
	home := p.links.home
	p.links.reset()
	p.mu.Unlock()
	p.cl.closeAll()
	p.ReplayHints()
	if p.cfg.Mode == ModeSocialTube && home >= 0 {
		p.socialTubePrefetch(home, -1)
	}
}

// retry runs attempt up to 1+MaxRetries times with a doubling backoff
// between tries, aborting early when the peer stops. It is the tracker
// path's policy, where a transient outage should degrade service
// gracefully instead of losing the request outright; spending the whole
// budget (or aborting) counts one RPCFailures.
func (p *Peer) retry(attempt func() (*Message, error)) (*Message, error) {
	backoff := p.cfg.RetryBackoff
	for n := 0; ; n++ {
		resp, err := attempt()
		if err == nil {
			return resp, nil
		}
		if n < p.cfg.MaxRetries {
			select {
			case <-p.ep.done:
			case <-time.After(backoff):
				backoff *= 2
				continue
			}
		}
		atomic.AddUint64(&p.ctr.RPCFailures, 1)
		return nil, err
	}
}

// chanKey returns the routing key for a video-keyed tracker RPC: the
// video's owning channel, so a video and its channel land on the same
// shard and the tracker's per-channel state stays shard-local.
func (p *Peer) chanKey(v trace.VideoID) int64 {
	if vd := p.tr.Video(v); vd != nil {
		return int64(vd.Channel)
	}
	return int64(v)
}

// trackerRPC routes one tracker-path RPC to the shard owning key, failing
// over between the shard's replicas, under the retry budget.
//
// Each attempt walks the owning shard's replica set (walkShard) starting
// from the preferred replica, then — if the whole shard failed — walks the
// shard the key re-rendezvouses onto when the owner is removed from the
// ring (on a one-shard plane that is the owner again, so there is nothing
// further to try). That fallback is what bounds the pre-takeover loss
// window: requests survive a whole-shard death even before any survivor
// has declared it, at the cost of one extra walk. Once a declaration has
// gossiped, responses carry the ring epoch and dead-shard mask, the
// peer's plane view reroutes the request up front, and the failed walk
// disappears.
func (p *Peer) trackerRPC(key int64, req *Message) (*Message, error) {
	shard := p.cp.Owner(key)
	_, dead := p.planeView()
	if dead != 0 {
		if alt := p.cp.OwnerExcluding(key, dead); alt != shard {
			atomic.AddUint64(&p.ctr.TakeoverReroutes, 1)
			shard = alt
		}
	}
	return p.retry(func() (*Message, error) {
		resp, err := p.walkShard(shard, req)
		if err != nil && shard < 64 {
			if fb := p.cp.OwnerExcluding(key, dead|1<<uint(shard)); fb != shard {
				if resp, err = p.walkShard(fb, req); err == nil {
					atomic.AddUint64(&p.ctr.TakeoverReroutes, 1)
				}
			}
		}
		if err == nil {
			p.observePlane(resp)
		}
		return resp, err
	})
}

// walkShard tries one request against every replica of shard, starting
// from the preferred replica: replicas across a partition cut are
// skipped, endpoints with open breakers are skipped, and transport
// outcomes feed the endpoint breaker. If every breaker was open the
// preferred replica is probed anyway — total shard darkness must keep
// probing for recovery.
func (p *Peer) walkShard(shard int, req *Message) (*Message, error) {
	reps := p.cp.Replicas(shard)
	pref := p.preferredReplica(len(reps))
	err := fmt.Errorf("emu: no reachable replica of shard %d", shard)
	tried := false
	for k := 0; k < len(reps); k++ {
		r := (pref + k) % len(reps)
		if p.cond.Severed(p.cfg.ID, r) {
			continue
		}
		resp, e := p.replicas.call(p.cp.EndpointIndex(shard, r), reps[r], req)
		if e == errBreakerOpen {
			continue
		}
		if e == nil {
			return resp, nil
		}
		tried, err = true, e
	}
	if !tried && !p.cond.Severed(p.cfg.ID, pref) {
		return p.replicas.send(p.cp.EndpointIndex(shard, pref), reps[pref], req)
	}
	return nil, err
}

// preferredReplica returns the replica of a shard's n this peer tries
// first: an ID-stable choice that spreads peers across replicas. While it
// is dark its open breaker makes the walk skip it without a message.
func (p *Peer) preferredReplica(n int) int {
	pref := p.cfg.ID % n
	if pref < 0 {
		pref += n
	}
	return pref
}

// admit is the endpoint's reachability check: a crashed host answers
// nothing at all, a partitioned sender is on the other side of the cut,
// and an offline peer does not answer.
func (p *Peer) admit(req *Message) bool {
	if p.crashed.Load() || (req.From >= 0 && p.cond.Severed(req.From, p.cfg.ID)) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.online
}

func (p *Peer) dispatch(req *Message) *Message {
	switch req.Type {
	case MsgQuery:
		return p.handleQuery(req)
	case MsgChunkReq:
		return p.handleChunkReq(req)
	case MsgConnect:
		return p.handleConnect(req)
	case MsgProbe:
		return &Message{Type: MsgOK, From: p.cfg.ID}
	case MsgBye:
		p.mu.Lock()
		p.links.dropPeer(req.From)
		p.mu.Unlock()
		return &Message{Type: MsgOK, From: p.cfg.ID}
	case MsgCacheSample:
		return p.handleCacheSample(req)
	default:
		return &Message{Type: MsgMiss, From: p.cfg.ID}
	}
}

// handleQuery implements the receiver side of the TTL flood: answer from
// the local cache or forward to neighbours with a decremented TTL. A hit
// short-circuits with this peer as the sole candidate (rank 1: fewest
// hops); forwarded floods (query) accumulate a ranked candidate list, so
// the requester can fail over without re-flooding.
func (p *Peer) handleQuery(req *Message) *Message {
	v := trace.VideoID(req.Video)
	p.mu.Lock()
	hasIt := p.cache.HasFull(v)
	neighbors := p.forwardSet()
	p.mu.Unlock()

	if hasIt {
		self := PeerInfo{ID: p.cfg.ID, Addr: p.Addr()}
		return &Message{
			Type: MsgOK, From: p.cfg.ID,
			Video: req.Video, Provider: p.cfg.ID, ProviderAddr: p.Addr(), Hops: 1,
			Providers: []PeerInfo{self},
		}
	}
	if req.TTL <= 1 {
		return &Message{Type: MsgMiss, From: p.cfg.ID, Messages: 0}
	}
	visited := append(append([]int{}, req.Visited...), p.cfg.ID)
	provs, msgs, hops := p.query(req.Video, req.TTL-1, visited, neighbors)
	if len(provs) == 0 {
		return &Message{Type: MsgMiss, From: p.cfg.ID, Messages: msgs}
	}
	return &Message{
		Type: MsgOK, From: p.cfg.ID,
		Video: req.Video, Hops: hops, Messages: msgs,
		Provider: provs[0].ID, ProviderAddr: provs[0].Addr,
		Providers: provs,
	}
}

// query is the sending side of the TTL flood, for the origin and for
// every forwarder alike: ask each neighbour outside visited in turn, and
// merge the answers into one ranked candidate list (closest-first,
// deduped, capped at maxQueryProviders). It returns the list, the query
// messages the flood consumed, and the depth of the first hit. Neighbours
// behind an open breaker are skipped without spending a message.
func (p *Peer) query(video, ttl int, visited []int, nbs []PeerInfo) (provs []PeerInfo, msgs, hops int) {
	seen := make(map[int]bool, len(visited))
	for _, id := range visited {
		seen[id] = true
	}
	for _, nb := range nbs {
		if seen[nb.ID] {
			continue
		}
		resp, err := p.peers.call(nb.ID, nb.Addr, &Message{
			Type: MsgQuery, From: p.cfg.ID, Video: video, TTL: ttl, Visited: visited,
		})
		if err == errBreakerOpen {
			continue
		}
		msgs++
		if err != nil {
			continue
		}
		msgs += resp.Messages
		if resp.Type != MsgOK {
			continue
		}
		if hops == 0 {
			hops = resp.Hops + 1
		}
		provs = appendProviders(provs, resp.Providers, maxQueryProviders)
		if len(provs) >= maxQueryProviders {
			break
		}
	}
	return provs, msgs, hops
}

// appendProviders merges src into dst keeping ids unique and the list at
// most limit long; earlier entries (fewer hops) keep their rank.
func appendProviders(dst, src []PeerInfo, limit int) []PeerInfo {
	for _, c := range src {
		if len(dst) >= limit {
			break
		}
		dup := false
		for _, d := range dst {
			if d.ID == c.ID {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, c)
		}
	}
	return dst
}

// forwardSet returns the neighbours a query is forwarded to. The caller
// must hold p.mu.
func (p *Peer) forwardSet() []PeerInfo {
	switch p.cfg.Mode {
	case ModeSocialTube:
		// Queries are forwarded along inner-links within the channel
		// overlay only (inter-neighbours start their own channel
		// floods at the origin).
		return p.links.neighbours(linkInner)
	case ModeNetTube:
		return p.links.neighbours(linkVideo)
	default:
		return nil
	}
}

// handleChunkReq serves one cached chunk from the peer's finite uplink.
func (p *Peer) handleChunkReq(req *Message) *Message {
	v := trace.VideoID(req.Video)
	p.mu.Lock()
	ok := p.cache.HasFull(v) || p.watching == v || (req.Chunk == 0 && p.cache.HasPrefix(v))
	if !ok {
		p.mu.Unlock()
		return &Message{Type: MsgMiss, From: p.cfg.ID}
	}
	now := time.Since(p.epoch)
	p.busyUntil = simnet.Reserve(p.busyUntil, now, chunkPayloadBytes, p.cfg.UplinkBps)
	wait := p.busyUntil - now
	p.servedBytes += chunkPayloadBytes
	p.mu.Unlock()
	time.Sleep(wait)
	return &Message{
		Type: MsgOK, From: p.cfg.ID,
		Video: req.Video, Chunk: req.Chunk,
		Payload: chunkPayload,
	}
}

// handleCacheSample returns up to TTL random cached video ids, the source
// material for NetTube's random neighbour prefetching.
func (p *Peer) handleCacheSample(req *Message) *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	vids := p.cache.FullVideos()
	n := req.TTL
	if n <= 0 || n > len(vids) {
		n = len(vids)
	}
	p.g.Shuffle(len(vids), func(i, j int) { vids[i], vids[j] = vids[j], vids[i] })
	out := make([]int, 0, n)
	for _, v := range vids[:n] {
		out = append(out, int(v))
	}
	return &Message{Type: MsgOK, From: p.cfg.ID, Videos: out}
}

// handleConnect accepts or rejects an overlay link request, keeping links
// symmetric (the requester adds the link only on acceptance).
func (p *Peer) handleConnect(req *Message) *Message {
	v := trace.VideoID(req.Video)
	info := PeerInfo{ID: req.From, Addr: req.Addr, Channel: req.Channel}
	p.mu.Lock()
	accepted := p.links.accept(req.Link, info, v, p.cache.HasFull(v))
	p.mu.Unlock()
	return &Message{Type: MsgOK, From: p.cfg.ID, Accepted: accepted}
}
