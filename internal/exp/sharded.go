// The category partition: one cell — one event loop — per interest
// community, advanced in epochs by the driver's sim.ShardedEngine, with
// cross-community lookups exchanged through epoch-barrier mailboxes. The
// partition is a pure function of the trace (trace.PartitionByCategory)
// and every mailbox key derives from community ids, so a run's full Result
// — counters, samples, engine stats — is byte-identical for any worker
// count, including the Workers=1 sequential loop the determinism tests pin.
package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/sim"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// RemoteSearcher is implemented by protocols whose community server can
// answer lookups on behalf of requesters from other communities
// (core.System). Protocols without it — the baselines — simply fall back
// to the origin community's server for cross-community videos.
type RemoteSearcher interface {
	// RemoteLookup answers a lookup forwarded from another community.
	// span is the originating request's span id, so the query event the
	// home community emits stays linked to the requester's causal chain.
	RemoteLookup(span uint64, v trace.VideoID) (provider, hops, msgs int, ok bool)
}

// SpanScoped is implemented by protocols whose request span ids can be
// rebased per community cell (core.System). The category partition gives
// each cell a disjoint span range so a merged trace never aliases spans
// from different cells.
type SpanScoped interface {
	SetSpanBase(base uint64)
}

// CellProtocol builds one community cell's protocol instance over the
// cell's renumbered trace.
type CellProtocol func(cell int, cellTrace *trace.Trace) (vod.Protocol, error)

// ShardedOptions is the worker budget of a partitioned run, and nothing
// else: the category partition replays the closed-loop sessions only, and a
// tracer reaches its cells through the CellProtocol factory.
type ShardedOptions struct {
	// Workers bounds the goroutines advancing community loops; 0 means
	// GOMAXPROCS, 1 is the fully sequential reference mode. The value
	// changes wall-clock only — results are byte-identical across it.
	Workers int
}

// DefaultShardedEpoch is the barrier interval of a run whose cells
// exchange mail. It is the cross-community round-trip granularity: a
// remote lookup costs up to two barrier waits of startup delay.
const DefaultShardedEpoch = time.Second

// ShardedInfo is the sharded run's extra accounting. Every field is
// independent of the worker count; per-shard wall-clock fields inside
// ShardLoad carry json:"-", so the whole Result stays byte-identical
// across worker counts.
type ShardedInfo struct {
	// Cells is the number of community cells (the category count).
	Cells int `json:"cells"`
	// Epoch is the barrier interval; Epochs the executed epoch count.
	Epoch  time.Duration `json:"epochNanos"`
	Epochs uint64        `json:"epochs"`
	// RemoteLookups / RemoteHits / RemoteBytes account cross-community
	// lookups: how many were forwarded to a video's home community, how
	// many found a provider there, and the bytes those providers served.
	RemoteLookups int64 `json:"remoteLookups"`
	RemoteHits    int64 `json:"remoteHits"`
	// RemoteBytes is included in the Result's PeerBytes total.
	RemoteBytes int64 `json:"remoteBytes"`
	// ShardLoad is the per-community-loop load accounting (events fired,
	// mail exchanged, and — outside the JSON — busy wall time), the
	// load-imbalance signal bench/'s sim-sharded workload reports.
	ShardLoad []sim.ShardStat `json:"shardLoad"`
}

// RunSharded runs the workload community-sharded: the trace is partitioned
// into per-category cells, each cell gets its own protocol instance (from
// factory), RNG stream, simnet and event loop, and the loops advance in
// parallel between epoch barriers. Cross-community requests that the local
// search cannot serve are forwarded to the video's home community when the
// protocol implements RemoteSearcher. Same seed ⇒ byte-identical Result
// for any Workers value. No figure or CLI runs it: it remains only for the
// sim-sharded workload of bench/, until that workload is retired.
func RunSharded(cfg Config, tr *trace.Trace, factory CellProtocol, netCfg simnet.Config, opts ShardedOptions) (*Result, error) {
	cells, router, err := categoryCells(cfg, tr, factory, netCfg)
	if err != nil {
		return nil, err
	}
	return drive(context.Background(), tr, cells, Options{}, opts.Workers, router)
}

// categoryCells is the category partition of the one driver, and decides
// only what a partition decides: which users share a cell, each cell's
// derived seeds, its per-capita share of the server uplink, its span
// range, and the router that carries lookups between cells.
func categoryCells(cfg Config, tr *trace.Trace, factory CellProtocol, netCfg simnet.Config) ([]cell, *remoteRouter, error) {
	if factory == nil {
		return nil, nil, fmt.Errorf("%w: nil cell protocol factory", dist.ErrBadParameter)
	}
	part, err := trace.PartitionByCategory(tr)
	if err != nil {
		return nil, nil, err
	}
	n := len(part.Cells)
	router := &remoteRouter{
		part:    part,
		remotes: make([]RemoteSearcher, n),
		seq:     make([]uint64, n),
	}
	cells := make([]cell, n)
	name := ""
	for c := range cells {
		cellTr := part.Cells[c].Trace
		if len(cellTr.Users) == 0 {
			continue // empty community: no protocol to build
		}
		proto, err := factory(c, cellTr)
		if err != nil {
			return nil, nil, fmt.Errorf("cell %d: %w", c, err)
		}
		if name == "" {
			name = proto.Name()
		} else if proto.Name() != name {
			return nil, nil, fmt.Errorf("%w: cell %d built protocol %q, want %q", dist.ErrBadParameter, c, proto.Name(), name)
		}
		cl := cell{cfg: cfg, tr: cellTr, proto: proto, net: netCfg}
		// Per-cell derived streams: any seed-and-cell function works as
		// long as it ignores the worker count.
		cl.cfg.Seed = cfg.Seed*1_000_003 + int64(c+1)
		cl.net.Seed = netCfg.Seed*1_000_003 + int64(c+1)
		// The global server splits its uplink per capita across the
		// community cells, mirroring the per-capita scaling the scale
		// sweep applies across populations.
		cl.net.ServerUplinkBps = max(1, netCfg.ServerUplinkBps*int64(len(cellTr.Users))/int64(len(tr.Users)))
		// Disjoint per-cell span ranges: cell in the high bits, the cell's
		// request sequence below — a pure function of (cell, request
		// order), independent of the worker count.
		if ss, ok := proto.(SpanScoped); ok {
			ss.SetSpanBase(uint64(c+1) << 40)
		}
		if rs, ok := proto.(RemoteSearcher); ok {
			router.remotes[c] = rs
		}
		cells[c] = cl
	}
	return cells, router, nil
}

// remoteProvider stands for a provider in another community cell: its node
// id lives in that cell's id space and is not addressable from here.
const remoteProvider simnet.NodeID = -2

// remoteRouter carries the cross-community lookup path of a sharded run.
// Each seq slot is touched only by events running on that cell's loop, and
// the remote accounting lives in each cell's own Result.Sharded, so the
// router needs no locks.
type remoteRouter struct {
	se      *sim.ShardedEngine // set by the driver before any loop runs
	part    *trace.Partition
	remotes []RemoteSearcher
	seq     []uint64
}

// key returns the next mailbox ordering key for a cell: community id in
// the high bits, a per-cell sequence below — unique per barrier and
// independent of the worker layout.
func (rt *remoteRouter) key(cell int) uint64 {
	rt.seq[cell]++
	return uint64(cell)<<40 | (rt.seq[cell] & (1<<40 - 1))
}

// forward routes a locally-unserved request to the video's home community.
// It returns false — caller serves locally — when the video already lives
// in the requester's own community or the protocol cannot answer remote
// lookups. Otherwise the lookup crosses the epoch barrier to the home
// cell (lookup), and the answer crosses back (reply), resuming the session
// chain in watchAccount.
func (rt *remoteRouter) forward(r *runner, node int, v trace.VideoID, res vod.RequestResult, now time.Duration) bool {
	src := r.cell
	dst := rt.part.HomeOfVideo(v)
	if dst < 0 || dst == src || rt.remotes[dst] == nil {
		return false
	}
	r.res.Sharded.RemoteLookups++
	// The local search is spent whether or not the reply beats the horizon;
	// the located result then carries only what the remote leg adds.
	r.res.Messages.Addn(int64(res.Messages))
	c := &r.chains[node]
	c.at, c.word = now, res.Span
	prefixed := 0
	if res.PrefixCached {
		prefixed = 1
	}
	rt.se.Send(src, dst, now, rt.key(src), r.onLookup[prefixed], ref(node, r.gen[node]))
	return true
}

// lookup is a remote lookup's first hop, on the home cell's loop. It reads
// the requester's chain, which is fixed in place, written before the Send,
// untouched while the chain waits and ordered before this hop by the
// barrier, and writes the answer into the chain's word for the reply: the
// messages the home community spent in the high half, the located
// result's hop count in the low half (0: no provider). The provider id is
// cell-local to the home community and not addressable from the requester,
// so it travels as remoteProvider.
func (rt *remoteRouter) lookup(r *runner, arg uint64, prefixed int, now time.Duration) {
	c := &r.chains[uint32(arg)]
	v := c.videos[len(c.videos)-1]
	dst := rt.part.HomeOfVideo(v)
	_, hops, msgs, ok := rt.remotes[dst].RemoteLookup(c.word, v)
	c.word = uint64(uint32(msgs)) << 32
	if ok {
		// One hop to reach the remote community server, then its search's.
		c.word |= uint64(uint32(hops + 1))
	}
	rt.se.Send(dst, r.cell, now, rt.key(dst), r.onReply[prefixed], arg)
}

// reply resumes the requester's chain, unless a crash and rejoin
// superseded it, with the home community's answer: a peer result when the
// home found a provider, else a server one, which travels no overlay hops;
// either way one message to reach the remote server plus its search's.
func (rt *remoteRouter) reply(r *runner, arg uint64, prefixed bool, now time.Duration) {
	node := int(uint32(arg))
	if r.gen[node] != uint32(arg>>32) {
		return
	}
	c := &r.chains[node]
	located := vod.RequestResult{Source: vod.SourceServer, Messages: int(c.word>>32) + 1, PrefixCached: prefixed}
	if hops := int(uint32(c.word)); hops > 0 {
		r.res.Sharded.RemoteHits++
		located.Source, located.Provider, located.Hops = vod.SourcePeer, int(remoteProvider), hops
	}
	r.watchAccount(node, located, c.at, now)
}
