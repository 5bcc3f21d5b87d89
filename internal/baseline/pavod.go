package baseline

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// PAVoDConfig holds PA-VoD's parameters.
type PAVoDConfig struct {
	// Seed drives the server's random watcher selection.
	Seed int64
	// ReadyDelay is how long after starting a video a watcher can serve
	// it to others: it must first download the leading chunk itself
	// (≈ chunk size / peer uplink). Zero disables the constraint.
	ReadyDelay time.Duration
	// MaxUploads bounds a watcher's concurrent uploads (a 1 Mbps uplink
	// sustains about three 320 kbps streams). Zero means unlimited.
	MaxUploads int
	// ISPs partitions peers into that many ISPs; PA-VoD (Huang et al.)
	// "localizes P2P traffic within an ISP", so a requester is only
	// directed to concurrent watchers in its own ISP. Values below 2
	// disable locality.
	ISPs int
}

// DefaultPAVoDConfig returns the defaults: a 320 kbps × 4 min video has
// ≈4.8 MB chunks, which a 1 Mbps peer uplink downloads in ≈38 s.
func DefaultPAVoDConfig() PAVoDConfig {
	return PAVoDConfig{
		Seed:       1,
		ReadyDelay: 38 * time.Second,
		MaxUploads: 3,
	}
}

// Validate reports the first problem with the configuration.
func (c PAVoDConfig) Validate() error {
	if c.ReadyDelay < 0 || c.MaxUploads < 0 || c.ISPs < 0 {
		return fmt.Errorf("%w: pa-vod config %+v", dist.ErrBadParameter, c)
	}
	return nil
}

// PAVoD implements the peer-assisted VoD baseline on the shared
// vod.Chassis: when a user requests a video, the server directs the request
// to users *currently watching* it; when a user finishes watching, it stops
// being a provider. There is no cache and no prefetching, which is why
// videos without concurrent watchers always fall back to the server.
type PAVoD struct {
	vod.Chassis
	cfg PAVoDConfig
	// watchers tracks who is currently watching each video, indexed by
	// video id — the server-side state PA-VoD needs; nil until first watched.
	watchers []*overlay.Members
	nodes    []paNode
	// eligible is the reusable candidate buffer of eligibleProvider.
	eligible []int
}

var _ vod.Protocol = (*PAVoD)(nil)

type paNode struct {
	watching trace.VideoID
	// slot is the node's index in watchers[watching], while watching ≥ 0.
	slot int32
	// uploads counts the node's concurrent uploads.
	uploads int32
	// startedAt is when the node began its current watch, for the
	// readiness constraint.
	startedAt time.Duration
	// provider is the peer currently streaming to this node (-1 when the
	// server serves it); it is the node's only "link".
	provider int
}

// NewPAVoD builds a PA-VoD system over the trace.
func NewPAVoD(cfg PAVoDConfig, tr *trace.Trace) (*PAVoD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pa-vod config: %w", err)
	}
	chassis, err := vod.NewChassis("PA-VoD", tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p := &PAVoD{
		Chassis:  chassis,
		cfg:      cfg,
		watchers: make([]*overlay.Members, len(tr.Videos)),
		nodes:    make([]paNode, len(tr.Users)),
	}
	for i := range p.nodes {
		p.nodes[i] = paNode{watching: -1, provider: -1}
	}
	return p, nil
}

// Join implements vod.Protocol. A departing node stopped watching, so a
// returning one starts with no video and no provider.
func (p *PAVoD) Join(node int) { p.Arrive(node) }

// Leave implements vod.Protocol.
func (p *PAVoD) Leave(node int) { p.depart(node, obs.KindLeave) }

// Fail implements vod.Protocol. PA-VoD keeps no overlay links, so an abrupt
// failure behaves like a departure from the server's perspective.
func (p *PAVoD) Fail(node int) { p.depart(node, obs.KindFail) }

func (p *PAVoD) depart(node int, kind obs.Kind) {
	if p.Depart(node, kind) {
		p.stopWatching(node)
	}
}

func (p *PAVoD) stopWatching(node int) {
	st := &p.nodes[node]
	if st.watching >= 0 {
		if moved := p.watchers[st.watching].Remove(int(st.slot)); moved >= 0 {
			p.nodes[moved].slot = st.slot
		}
		st.startedAt = 0
		st.watching = -1
	}
	if st.provider >= 0 {
		if p.nodes[st.provider].uploads > 0 {
			p.nodes[st.provider].uploads--
		}
		st.provider = -1
	}
}

// eligibleProvider picks a current watcher that (a) has watched long enough
// to hold the leading chunk and (b) has upload capacity left.
func (p *PAVoD) eligibleProvider(v trace.VideoID, exclude int) int {
	eligible := p.eligible[:0]
	for _, id := range p.watchers[v].View() {
		if id == exclude || !p.Online(id) {
			continue
		}
		if !vod.SameISP(id, exclude, p.cfg.ISPs) {
			continue
		}
		if p.cfg.ReadyDelay > 0 && p.Now()-p.nodes[id].startedAt < p.cfg.ReadyDelay {
			continue
		}
		if p.cfg.MaxUploads > 0 && int(p.nodes[id].uploads) >= p.cfg.MaxUploads {
			continue
		}
		eligible = append(eligible, id)
	}
	p.eligible = eligible
	if len(eligible) == 0 {
		return -1
	}
	return eligible[p.RNG.Intn(len(eligible))]
}

// Request implements vod.Protocol: locate inside the chassis' request
// bracket (span before, accounting and serve event after).
func (p *PAVoD) Request(node int, v trace.VideoID) vod.RequestResult {
	p.BeginRequest()
	return p.Account(node, v, p.locate(node, v))
}

// locate asks the server to direct the request to a current watcher of the
// video, if any; otherwise the server serves the video itself. The node
// becomes a watcher (and thus a prospective provider) until Finish.
func (p *PAVoD) locate(node int, v trace.VideoID) vod.RequestResult {
	if !p.Online(node) || p.Trace.Video(v) == nil {
		return vod.RequestResult{Source: vod.SourceServer}
	}
	// Moving to a new video ends the previous watch.
	p.stopWatching(node)
	st := &p.nodes[node]
	res := vod.RequestResult{Source: vod.SourceServer, Messages: 1} // the request to the server
	// PA-VoD has no overlay to flood: every lookup is server-level.
	p.Ctr.LookupsServer++
	provider := p.eligibleProvider(v, node)
	p.Flooded(node, v, obs.LevelServer, provider >= 0, provider, 1, 1)
	if provider >= 0 {
		res.Source, res.Provider, res.Hops = vod.SourcePeer, provider, 1
		st.provider = provider
		p.nodes[provider].uploads++
	}
	st.watching = v
	st.startedAt = p.Now()
	if p.watchers[v] == nil {
		p.watchers[v] = &overlay.Members{}
	}
	st.slot = int32(p.watchers[v].Add(node))
	return res
}

// Finish implements vod.Protocol: the node stops being a provider for the
// video; nothing is cached.
func (p *PAVoD) Finish(node int, v trace.VideoID) {
	if p.Known(node) && p.nodes[node].watching == v {
		p.stopWatching(node)
	}
}

// Links implements vod.Protocol: a PA-VoD node maintains at most one active
// peer connection (to its current provider).
func (p *PAVoD) Links(node int) int {
	if !p.Known(node) || p.nodes[node].provider < 0 {
		return 0
	}
	return 1
}
