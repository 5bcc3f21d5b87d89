package emu

import (
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// Record is the outcome of one emulated video request: the simulator's
// per-request outcome plus what only a real delivery can report.
type Record struct {
	// RequestResult says who served the video (Source), how many query
	// messages the request consumed and whether the first chunk was already
	// local (PrefixCached). Provider, Hops and Span stay zero: a download
	// may switch providers mid-stream, and the driver assigns spans.
	vod.RequestResult
	// Startup is the measured wall-clock delay before playback could
	// start (first chunk available).
	Startup time.Duration
	// Failed reports that neither peers nor the server delivered the
	// video (a tracker outage outlasted the retry budget). Failed
	// requests still carry SourceServer so hit counts sum to the
	// request total.
	Failed bool
	// HandoffAttempts / Handoffs count mid-stream provider switches
	// tried and completed; HandoffWait is the stall between losing a
	// provider and the first chunk resumed from its replacement.
	HandoffAttempts int
	Handoffs        int
	HandoffWait     time.Duration
	// ServerRescued reports that every candidate ran dry mid-stream and
	// the server completed only the remainder (a rescue, not a restart).
	ServerRescued bool
}

// RequestVideo locates and downloads the video, returning delivery metrics.
// It blocks until the first chunk is available (the startup delay) and
// fetches remaining chunks before returning.
func (p *Peer) RequestVideo(v trace.VideoID) Record {
	video := p.tr.Video(v)
	if video == nil {
		return Record{RequestResult: vod.RequestResult{Source: vod.SourceServer}}
	}
	start := time.Now()
	p.mu.Lock()
	full := p.cache.HasFull(v)
	prefix := p.cache.HasPrefix(v)
	p.mu.Unlock()
	rec := Record{RequestResult: vod.RequestResult{PrefixCached: prefix}}
	if full {
		rec.Source = vod.SourceCache
		return rec
	}

	switch p.cfg.Mode {
	case ModeSocialTube:
		p.socialTubeRequest(v, video, &rec)
	case ModeNetTube:
		p.netTubeRequest(v, &rec)
	default:
		p.paVoDRequest(v, &rec)
	}
	if rec.PrefixCached {
		rec.Startup = 0
	} else {
		rec.Startup = time.Since(start)
	}
	return rec
}

// socialTubeRequest runs Algorithm 1 over real sockets: join/attach to the
// channel overlay, flood inner-links, then inter-neighbours, then the
// server.
func (p *Peer) socialTubeRequest(v trace.VideoID, video *trace.Video, rec *Record) {
	recommended := p.attachChannel(video.Channel)
	p.mu.Lock()
	innerNbs := p.links.neighbours(linkInner)
	interNbs := p.links.neighbours(linkInter)
	p.mu.Unlock()
	// The server recommended a member of the video's own channel overlay
	// ("including a node with the video", §IV-A); it is queried even when
	// the inter-link budget had no room to keep it.
	queried := make(map[int]bool, len(innerNbs)+len(interNbs))
	for _, nb := range innerNbs {
		queried[nb.ID] = true
	}
	for _, nb := range interNbs {
		queried[nb.ID] = true
	}
	var entries []PeerInfo
	for _, info := range recommended {
		if trace.ChannelID(info.Channel) == video.Channel && !queried[info.ID] && info.ID != p.cfg.ID {
			entries = append(entries, info)
		}
	}

	// requery refills the candidate list after a mid-stream exhaustion:
	// a fresh flood only returns providers that are alive right now.
	requery := func() []PeerInfo {
		if cands, ok := p.flood(v, innerNbs, rec); ok {
			return cands
		}
		cands, _ := p.flood(v, interNbs, rec)
		return cands
	}
	// The search order: the channel overlay, then each inter-neighbour's
	// own channel overlay, then the server's entry points. The first
	// phase whose flood hits serves the request and keeps a link of its
	// kind to the best provider.
	for _, phase := range []struct {
		nbs     []PeerInfo
		link    string
		channel int
	}{
		{innerNbs, linkInner, int(video.Channel)},
		{interNbs, linkInter, 0},
		{entries, linkInter, 0},
	} {
		cands, ok := p.flood(v, phase.nbs, rec)
		if !ok {
			continue
		}
		if !p.fetchFromCandidates(v, cands, requery, rec) {
			// Every candidate vanished before the first chunk; the
			// server serves the whole request.
			p.fetchFromServer(v, 0, rec)
		}
		p.connectTo(cands[0], phase.link, phase.channel, 0)
		return
	}
	p.fetchFromServer(v, 0, rec)
}

// netTubeRequest queries neighbours across all joined per-video overlays;
// fresh nodes ask the server to direct them at overlay providers; misses
// are served by the server. Either way the node joins the video's overlay.
func (p *Peer) netTubeRequest(v trace.VideoID, rec *Record) {
	p.mu.Lock()
	nbs := p.links.neighbours(linkVideo)
	p.mu.Unlock()

	// requery asks the tracker for the overlay's current members — the
	// only failover source NetTube has beyond its own links.
	requery := func() []PeerInfo {
		rec.Messages++
		return p.joinVideoOverlay(v, nil)
	}
	if len(nbs) > 0 {
		if cands, ok := p.flood(v, nbs, rec); ok {
			if !p.fetchFromCandidates(v, cands, requery, rec) {
				p.fetchFromServer(v, 0, rec)
			}
			p.joinVideoOverlay(v, &cands[0])
			return
		}
		p.fetchFromServer(v, 0, rec)
		p.joinVideoOverlay(v, nil)
		return
	}
	// First request: the server directs the node into the overlay.
	peers := p.joinVideoOverlay(v, nil)
	rec.Messages++
	if len(peers) > 0 && p.fetchFromCandidates(v, peers, requery, rec) {
		return
	}
	p.fetchFromServer(v, 0, rec)
}

// paVoDRequest registers as a watcher and downloads from a concurrent
// watcher when one exists.
func (p *Peer) paVoDRequest(v trace.VideoID, rec *Record) {
	p.mu.Lock()
	p.watching = v
	p.mu.Unlock()
	// watchStart doubles as the requery: re-registering returns the
	// tracker's current concurrent watchers.
	watchStart := func() []PeerInfo {
		rec.Messages++
		resp, err := p.trackerRPC(p.chanKey(v), &Message{
			Type: MsgWatchStart, From: p.cfg.ID, Addr: p.Addr(), Video: int(v),
		})
		if err != nil || resp.Type != MsgOK {
			return nil
		}
		return resp.Providers
	}
	if cands := watchStart(); len(cands) > 0 && p.fetchFromCandidates(v, cands, watchStart, rec) {
		return
	}
	p.fetchFromServer(v, 0, rec)
}

// flood starts a query at this peer with the configured TTL and returns
// the ranked candidates, charging the messages it consumed to rec.
func (p *Peer) flood(v trace.VideoID, nbs []PeerInfo, rec *Record) ([]PeerInfo, bool) {
	cands, msgs, _ := p.query(int(v), p.cfg.TTL, []int{p.cfg.ID}, nbs)
	rec.Messages += msgs
	return cands, len(cands) > 0
}

// fetchFromCandidates downloads the video chunk-by-chunk, failing over
// along the ranked candidate list: a provider lost mid-stream is replaced
// by the next candidate and the download resumes from the last received
// chunk. When the scan reaches the end of the list mid-stream — whatever
// the last entry was: tried, skipped, or this peer itself — requery (when
// non-nil, called at most once) refills it with providers that are alive
// right now; if that also fails the server completes only the remainder —
// a rescue, not a restart. It reports false only when no candidate
// delivered chunk 0; the caller then falls back to a full server fetch.
func (p *Peer) fetchFromCandidates(v trace.VideoID, cands []PeerInfo, requery func() []PeerInfo, rec *Record) bool {
	chunk := 0
	requeried := false
	tried := make(map[int]bool)
	var waitStart time.Time // running stall of the current handoff
	for i := 0; ; i++ {
		if i == len(cands) && chunk > 0 && !requeried && requery != nil {
			requeried = true
			cands = appendProviders(cands, requery(), len(cands)+maxQueryProviders)
		}
		if i >= len(cands) {
			break
		}
		c := cands[i]
		if c.Addr == "" || c.ID == p.cfg.ID || tried[c.ID] {
			continue
		}
		tried[c.ID] = true
		if !p.peers.allow(c.ID) {
			continue
		}
		if chunk > 0 {
			// Mid-stream: switching providers is a handoff attempt.
			atomic.AddUint64(&p.ctr.HandoffAttempts, 1)
			rec.HandoffAttempts++
			if waitStart.IsZero() {
				waitStart = time.Now()
			}
		}
		delivered := false
		for chunk < vod.DefaultChunksPerVideo {
			resp, err := p.peers.send(c.ID, c.Addr, &Message{
				Type: MsgChunkReq, From: p.cfg.ID, Video: int(v), Chunk: chunk,
			})
			if err != nil {
				break
			}
			if resp.Type != MsgOK {
				break // healthy peer without the chunk: next candidate
			}
			if !delivered && chunk > 0 {
				// First resumed chunk: the handoff completed.
				atomic.AddUint64(&p.ctr.Handoffs, 1)
				rec.Handoffs++
				rec.HandoffWait += time.Since(waitStart)
				waitStart = time.Time{}
			}
			delivered = true
			p.noteChunk(v, chunk, c.ID)
			chunk++
		}
		if chunk >= vod.DefaultChunksPerVideo {
			rec.Source = vod.SourcePeer
			return true
		}
	}
	if chunk == 0 {
		return false // nothing delivered: the caller owns the fallback
	}
	// Candidates exhausted mid-stream: the server rescues the remainder.
	atomic.AddUint64(&p.ctr.HandoffServerRescues, 1)
	rec.ServerRescued = true
	p.fetchFromServer(v, chunk, rec)
	return true
}

// noteChunk reports a delivered chunk to the onChunk hook when one is
// installed (figure/test harnesses); provider is -1 for the server.
func (p *Peer) noteChunk(v trace.VideoID, chunk, provider int) {
	p.mu.Lock()
	fn := p.onChunk
	p.mu.Unlock()
	if fn != nil {
		fn(v, chunk, provider)
	}
}

// fetchFromServer downloads chunks [from, end) from the tracker, retrying
// each within the peer's retry budget. When even the first requested
// chunk never arrives on a full fetch (the tracker outage outlasted every
// retry) the request is marked Failed and the remaining chunks are
// skipped — the player gave up. A mid-stream rescue (from > 0) is never
// Failed: playback already started from peers.
func (p *Peer) fetchFromServer(v trace.VideoID, from int, rec *Record) {
	served := false
	for c := from; c < vod.DefaultChunksPerVideo; c++ {
		resp, err := p.trackerRPC(p.chanKey(v), &Message{
			Type: MsgServe, From: p.cfg.ID, Video: int(v), Chunk: c,
		})
		if err != nil || resp.Type != MsgOK {
			if c == from {
				break
			}
			continue
		}
		served = true
		p.noteChunk(v, c, -1)
	}
	if rec.Source != vod.SourcePeer {
		rec.Source = vod.SourceServer
		rec.Failed = !served && from == 0
	}
}

// attachChannel joins (or switches to) the channel's overlay when the peer
// subscribes to it, refreshes inter-links either way, and returns the
// server's peer recommendations (used as channel-overlay entry points).
func (p *Peer) attachChannel(ch trace.ChannelID) []PeerInfo {
	p.mu.Lock()
	subscribed := p.subs[ch]
	home := p.links.home
	noInner := p.links.inner.Len() == 0
	needInter := !p.links.inter.Full()
	joinedEpoch := p.joinedEpoch
	p.mu.Unlock()
	curEpoch, _ := p.planeView()

	// An epoch change means the live shard set moved (a takeover or a
	// revival): the home channel's membership row may live on a shard
	// that never saw it, so re-join to repopulate the adopting shard's
	// table — the server-assisted re-registration leg of the takeover.
	epochMoved := subscribed && home == ch && joinedEpoch != curEpoch
	needJoin := subscribed && (home != ch || noInner || epochMoved)
	needEntry := home != ch // a foreign channel needs an entry point
	if !needJoin && !needInter && !needEntry {
		return nil
	}
	member := 0
	if subscribed {
		member = 1 // ride the membership flag in TTL
	}
	resp, err := p.trackerRPC(int64(ch), &Message{
		Type: MsgJoin, From: p.cfg.ID, Addr: p.Addr(), Channel: int(ch), TTL: member,
	})
	if err != nil || resp.Type != MsgJoinOK {
		return nil
	}
	if needJoin {
		if epochMoved {
			atomic.AddUint64(&p.ctr.TakeoverRejoins, 1)
		}
		p.mu.Lock()
		p.links.setHome(ch)
		p.joinedEpoch = curEpoch
		p.mu.Unlock()
	}
	for _, info := range resp.Peers {
		if trace.ChannelID(info.Channel) == ch && subscribed {
			p.connectTo(info, linkInner, int(ch), 0)
		} else {
			p.connectTo(info, linkInter, info.Channel, 0)
		}
	}
	return resp.Peers
}

// connectTo performs the symmetric link handshake: ask the target to accept
// the link, and record it locally only when accepted (and still within
// budget — handlers may have filled the set while the request was out).
func (p *Peer) connectTo(info PeerInfo, link string, channel, video int) bool {
	if info.Addr == "" {
		return false
	}
	v := trace.VideoID(video)
	p.mu.Lock()
	fits := p.links.canAdd(link, info.ID, v)
	p.mu.Unlock()
	if !fits {
		return false
	}
	resp, err := p.cl.rpc(info.Addr, &Message{
		Type: MsgConnect, From: p.cfg.ID, Addr: p.Addr(),
		Link: link, Channel: channel, Video: video,
	})
	if err != nil || resp.Type != MsgOK || !resp.Accepted {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.links.add(link, info, v)
}

// joinVideoOverlay registers in the tracker's per-video overlay and links
// to up to LinksPerOverlay members (NetTube). It returns the members the
// tracker recommended.
func (p *Peer) joinVideoOverlay(v trace.VideoID, provider *PeerInfo) []PeerInfo {
	resp, err := p.trackerRPC(p.chanKey(v), &Message{
		Type: MsgJoinVideo, From: p.cfg.ID, Addr: p.Addr(), Video: int(v),
	})
	p.mu.Lock()
	p.links.joinVideo(v)
	p.mu.Unlock()
	if provider != nil {
		p.connectTo(*provider, linkVideo, 0, int(v))
	}
	if err != nil || resp.Type != MsgJoinOK {
		return nil
	}
	for _, info := range resp.Peers {
		p.connectTo(info, linkVideo, 0, int(v))
	}
	return resp.Peers
}

// FinishVideo records a completed watch: cache the video, advertise it
// (NetTube), release the watcher slot (PA-VoD) and prefetch.
func (p *Peer) FinishVideo(v trace.VideoID) {
	video := p.tr.Video(v)
	if video == nil {
		return
	}
	switch p.cfg.Mode {
	case ModePAVoD:
		p.mu.Lock()
		if p.watching == v {
			p.watching = -1
		}
		p.mu.Unlock()
		// Retried: a dropped watch_done leaves the tracker handing out
		// this peer as a provider long after it stopped serving.
		p.trackerRPC(p.chanKey(v), &Message{Type: MsgWatchDone, From: p.cfg.ID, Video: int(v)})
		return // no cache, no prefetch
	case ModeNetTube:
		p.mu.Lock()
		p.cache.AddFull(v)
		p.mu.Unlock()
		// Retried: losing the advertisement silently shrinks the overlay
		// the tracker can direct later requesters into.
		p.trackerRPC(p.chanKey(v), &Message{Type: MsgHave, From: p.cfg.ID, Addr: p.Addr(), Video: int(v)})
		p.netTubePrefetch(v)
	case ModeSocialTube:
		p.mu.Lock()
		p.cache.AddFull(v)
		p.mu.Unlock()
		p.socialTubePrefetch(video.Channel, v)
	}
}

// socialTubePrefetch pulls the channel's popularity list from the server
// and caches the first chunks of the top-M videos (§IV-B): vod.PickPrefetch
// over the top M+1, skipping only the video just watched.
func (p *Peer) socialTubePrefetch(ch trace.ChannelID, watched trace.VideoID) {
	if p.cfg.PrefetchCount <= 0 {
		return
	}
	resp, err := p.trackerRPC(int64(ch), &Message{
		Type: MsgTopList, From: p.cfg.ID, Channel: int(ch), TTL: p.cfg.PrefetchCount + 1,
	})
	if err != nil || resp.Type != MsgOK {
		return
	}
	top := make([]trace.VideoID, len(resp.Videos))
	for i, v := range resp.Videos {
		top[i] = trace.VideoID(v)
	}
	picks := vod.PickPrefetch(nil, top, p.cfg.PrefetchCount, func(v trace.VideoID) bool { return v == watched })
	p.mu.Lock()
	for _, v := range picks {
		p.cache.AddPrefix(v)
	}
	p.mu.Unlock()
}

// netTubePrefetch prefetches the first chunks of videos sampled at random
// from neighbours' caches — NetTube's related-video prefetching ("a node
// randomly chooses the videos its neighbors have watched to prefetch").
func (p *Peer) netTubePrefetch(watched trace.VideoID) {
	if p.cfg.PrefetchCount <= 0 {
		return
	}
	p.mu.Lock()
	nbs := p.links.neighbours(linkVideo) // id-ordered: the g.Intn pick below needs a stable order
	p.mu.Unlock()
	if len(nbs) == 0 {
		return
	}
	added := 0
	for attempts := 0; added < p.cfg.PrefetchCount && attempts < 2*len(nbs); attempts++ {
		p.mu.Lock()
		nb := nbs[p.g.Intn(len(nbs))]
		p.mu.Unlock()
		resp, err := p.cl.rpc(nb.Addr, &Message{Type: MsgCacheSample, From: p.cfg.ID, TTL: p.cfg.PrefetchCount})
		if err != nil || resp.Type != MsgOK {
			continue
		}
		for _, raw := range resp.Videos {
			if added >= p.cfg.PrefetchCount {
				break
			}
			vid := trace.VideoID(raw)
			if vid == watched {
				continue
			}
			p.mu.Lock()
			have := p.cache.HasPrefix(vid)
			if !have {
				p.cache.AddPrefix(vid)
				added++
			}
			p.mu.Unlock()
		}
	}
}

// Probe checks every neighbour once and drops every link to the ones that
// do not answer, counting the probes and the pruned links as the
// simulator does. It returns the number of probe messages sent.
func (p *Peer) Probe() int {
	p.mu.Lock()
	nbs := p.links.neighbours("")
	p.mu.Unlock()
	atomic.AddUint64(&p.ctr.ProbeMsgs, uint64(len(nbs)))
	for _, nb := range nbs {
		if _, err := p.cl.rpc(nb.Addr, &Message{Type: MsgProbe, From: p.cfg.ID}); err != nil {
			p.mu.Lock()
			before := p.links.count()
			p.links.dropPeer(nb.ID)
			atomic.AddUint64(&p.ctr.LinksPruned, uint64(before-p.links.count()))
			p.mu.Unlock()
		}
	}
	return len(nbs)
}

// LeaveOverlays gracefully departs: notify every neighbour (which drops its
// link immediately, §IV-A), deregister from the tracker and clear local
// link state. The cache survives for the next session, as in the paper.
func (p *Peer) LeaveOverlays() {
	p.mu.Lock()
	nbs := p.links.neighbours("")
	p.mu.Unlock()
	for _, nb := range nbs {
		p.cl.rpc(nb.Addr, &Message{Type: MsgBye, From: p.cfg.ID})
	}
	// Gossip also carries the departure between replicas.
	p.broadcastLeave()
	p.mu.Lock()
	p.links.reset()
	p.mu.Unlock()
}
