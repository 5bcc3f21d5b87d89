// Sharded experiment engine: one event loop per interest community,
// advanced in epochs by sim.ShardedEngine, with cross-community
// lookups exchanged through epoch-barrier mailboxes. The partition is a
// pure function of the trace (trace.PartitionByCategory) and every mailbox
// key derives from community ids, so a run's full Result — counters,
// samples, engine stats — is byte-identical for any worker count,
// including the Workers=1 sequential loop the determinism tests pin.
package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
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
// rebased per community cell (core.System). The sharded runner gives each
// cell a disjoint span range so a merged trace never aliases spans from
// different cells.
type SpanScoped interface {
	SetSpanBase(base uint64)
}

// CellProtocol builds one community cell's protocol instance over the
// cell's renumbered trace.
type CellProtocol func(cell int, cellTrace *trace.Trace) (vod.Protocol, error)

// ShardedOptions configures a sharded run.
type ShardedOptions struct {
	// Workers bounds the goroutines advancing community loops; 0 means
	// GOMAXPROCS, 1 is the fully sequential reference mode. The value
	// changes wall-clock only — results are byte-identical across it.
	Workers int
	// Epoch is the barrier interval in virtual time (default 1s). It is
	// the cross-community round-trip granularity: a remote lookup costs
	// up to two barrier waits of startup delay.
	Epoch time.Duration
	// TimelineWindow, when positive, records per-window telemetry in every
	// cell and merges the cells' timelines in ascending cell order into
	// Result.Timeline. Windows are keyed by simulated time, so the merged
	// timeline is byte-identical for any Workers value.
	TimelineWindow time.Duration
	// Load, when non-nil, replaces every cell's closed-loop session
	// replay with open-loop arrivals: the profile is split per capita
	// across the community cells (load.Profile.Split), each cell
	// drawing its own deterministic stream, and a flash crowd fires
	// only in the cell that homes the viral channel. The merged
	// Result.Load is byte-identical for any Workers value.
	Load *load.Profile
}

// DefaultShardedEpoch is the default barrier interval.
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
	// mail exchanged, and — outside the JSON — busy and barrier-wait
	// wall time), the load-imbalance signal the scale figures surface.
	ShardLoad []sim.ShardStat `json:"shardLoad"`
}

// RunSharded runs the workload community-sharded: the trace is partitioned
// into per-category cells, each cell gets its own protocol instance (from
// factory), RNG stream, simnet and event loop, and the loops advance in
// parallel between epoch barriers. Cross-community requests that the local
// search cannot serve are forwarded to the video's home community when the
// protocol implements RemoteSearcher. Fault plans are not supported on the
// sharded path. Same seed ⇒ byte-identical Result for any Workers value.
func RunSharded(cfg Config, tr *trace.Trace, factory CellProtocol, netCfg simnet.Config, opts ShardedOptions) (*Result, error) {
	return RunShardedCtx(context.Background(), cfg, tr, factory, netCfg, opts)
}

// RunShardedCtx is RunSharded with cooperative cancellation, checked at
// every epoch barrier.
func RunShardedCtx(ctx context.Context, cfg Config, tr *trace.Trace, factory CellProtocol, netCfg simnet.Config, opts ShardedOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("exp config: %w", err)
	}
	if tr == nil || len(tr.Users) == 0 {
		return nil, fmt.Errorf("%w: sharded experiment needs a non-empty trace", dist.ErrBadParameter)
	}
	if factory == nil {
		return nil, fmt.Errorf("%w: nil cell protocol factory", dist.ErrBadParameter)
	}
	part, err := trace.PartitionByCategory(tr)
	if err != nil {
		return nil, err
	}
	flashCell := -1
	if opts.Load != nil {
		if err := opts.Load.Validate(); err != nil {
			return nil, err
		}
		if f := opts.Load.Flash; f != nil {
			if f.Channel >= len(tr.Channels) || len(tr.Channels[f.Channel].Videos) == 0 {
				return nil, fmt.Errorf("%w: flash channel %d missing or empty in trace", dist.ErrBadParameter, f.Channel)
			}
			// The flash fires in the community that homes the viral
			// channel (its dominant category).
			flashCell = int(tr.Channels[f.Channel].Primary)
		}
	}
	epoch := opts.Epoch
	if epoch == 0 {
		epoch = DefaultShardedEpoch
	}
	se, err := sim.NewShardedEngine(sim.ShardedConfig{
		Shards:  len(part.Cells),
		Epoch:   epoch,
		Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	router := &remoteRouter{
		se:            se,
		part:          part,
		runners:       make([]*runner, len(part.Cells)),
		remotes:       make([]RemoteSearcher, len(part.Cells)),
		seq:           make([]uint64, len(part.Cells)),
		lookups:       make([]int64, len(part.Cells)),
		hits:          make([]int64, len(part.Cells)),
		bytes:         make([]int64, len(part.Cells)),
		peerUplinkBps: netCfg.PeerUplinkBps,
	}
	name := ""
	for c := range part.Cells {
		cellTr := part.Cells[c].Trace
		if len(cellTr.Users) == 0 {
			continue // empty community: no loop work
		}
		proto, err := factory(c, cellTr)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", c, err)
		}
		if name == "" {
			name = proto.Name()
		} else if proto.Name() != name {
			return nil, fmt.Errorf("%w: cell %d built protocol %q, want %q", dist.ErrBadParameter, c, proto.Name(), name)
		}
		cellCfg := cfg
		// Per-cell derived streams: any seed-and-cell function works as
		// long as it ignores the worker count.
		cellCfg.Seed = cfg.Seed*1_000_003 + int64(c+1)
		cellNet := netCfg
		cellNet.Seed = netCfg.Seed*1_000_003 + int64(c+1)
		// The global server splits its uplink per capita across the
		// community cells, mirroring the per-capita scaling the scale
		// sweep applies across populations.
		if share := netCfg.ServerUplinkBps * int64(len(cellTr.Users)) / int64(len(tr.Users)); share > 0 {
			cellNet.ServerUplinkBps = share
		} else {
			cellNet.ServerUplinkBps = 1
		}
		r, err := newRunner(cellCfg, cellTr, proto, cellNet)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", c, err)
		}
		// The cell's loop is its shard engine; everything the runner
		// schedules stays on it.
		r.engine = se.Shard(c)
		r.remote = router
		r.cell = c
		// Disjoint per-cell span ranges: cell in the high bits, the cell's
		// request sequence below — a pure function of (cell, request
		// order), independent of the worker count.
		if ss, ok := proto.(SpanScoped); ok {
			ss.SetSpanBase(uint64(c+1) << 40)
		}
		if rs, ok := proto.(RemoteSearcher); ok {
			router.remotes[c] = rs
		}
		router.runners[c] = r
		var cellProf *load.Profile
		if opts.Load != nil {
			cellProf = opts.Load.Split(c, len(cellTr.Users), len(tr.Users), c == flashCell)
			if cellProf.Flash != nil {
				// Channel ids are global across cells, so the flash
				// target resolves in the cell's shared catalog.
				cellProf.Flash.Channel = opts.Load.Flash.Channel
			}
		}
		if err := r.arm(opts.TimelineWindow, cellProf); err != nil {
			return nil, fmt.Errorf("cell %d: %w", c, err)
		}
	}
	if name == "" {
		return nil, fmt.Errorf("%w: every community cell is empty", dist.ErrBadParameter)
	}
	if err := se.RunCtx(ctx, cfg.Horizon); err != nil {
		return nil, err
	}
	return mergeSharded(cfg, tr, se, router, name, epoch, opts.TimelineWindow), nil
}

// mergeSharded folds the per-cell results into one Result, in cell-id
// order so the merged samples are layout-free.
func mergeSharded(cfg Config, tr *trace.Trace, se *sim.ShardedEngine, router *remoteRouter, name string, epoch, tlWindow time.Duration) *Result {
	merged := &Result{
		Protocol:          name,
		LinksByVideoIndex: make([]obs.Hist, cfg.VideosPerSession),
	}
	if tlWindow > 0 {
		merged.Timeline = newTimelineRec(tlWindow).tl
	}
	info := &ShardedInfo{Cells: len(router.runners), Epoch: epoch}
	for c, r := range router.runners {
		info.RemoteLookups += router.lookups[c]
		info.RemoteHits += router.hits[c]
		info.RemoteBytes += router.bytes[c]
		if r == nil {
			continue
		}
		r.finalize()
		res := r.res
		merged.StartupDelay.Merge(&res.StartupDelay)
		if merged.Timeline != nil && res.Timeline != nil {
			// Every cell built the identical layout via newTimelineRec, so
			// a merge error here is a programming error, not data.
			if err := merged.Timeline.Merge(res.Timeline); err != nil {
				panic(err)
			}
		}
		merged.PeerBandwidth.Merge(&res.PeerBandwidth)
		for k := range merged.LinksByVideoIndex {
			merged.LinksByVideoIndex[k].Merge(&res.LinksByVideoIndex[k])
		}
		merged.CacheHits.Addn(res.CacheHits.Value())
		merged.PrefixHits.Addn(res.PrefixHits.Value())
		merged.PeerHits.Addn(res.PeerHits.Value())
		merged.ServerHits.Addn(res.ServerHits.Value())
		merged.Messages.Addn(res.Messages.Value())
		merged.ProbeMessages.Addn(res.ProbeMessages.Value())
		merged.ServerBytes += res.ServerBytes
		merged.PeerBytes += res.PeerBytes
		merged.Requests += res.Requests
		merged.Obs.Merge(res.Obs)
		if res.Load != nil {
			if merged.Load == nil {
				merged.Load = &LoadInfo{}
			}
			merged.Load.merge(res.Load)
		}
	}
	// Cross-community providers are peers too; their bytes never crossed
	// a cell simnet, so they are added here (RemoteBytes is the subset).
	merged.PeerBytes += info.RemoteBytes
	merged.SimulatedTime = se.Now()
	merged.Engine = se.Stats()
	info.Epochs = se.Epochs()
	info.ShardLoad = se.ShardStats()
	merged.Sharded = info
	merged.Mem = obs.MemUsage{TraceBytes: tr.Bytes()}
	merged.Mem.BytesPerUser = float64(merged.Mem.TraceBytes) / float64(len(tr.Users))
	w := obs.NewMemWatermark(1)
	merged.Mem.HeapHighWater = w.Sample()
	return merged
}

// remoteRouter carries the cross-community lookup path of a sharded run.
// Every per-cell slot (seq, lookups, hits, bytes) is touched only by
// events running on that cell's loop, so the router needs no locks.
type remoteRouter struct {
	se      *sim.ShardedEngine
	part    *trace.Partition
	runners []*runner
	remotes []RemoteSearcher
	seq     []uint64
	lookups []int64
	hits    []int64
	bytes   []int64
	// peerUplinkBps models the remote provider's uplink for the analytic
	// cross-community delivery path.
	peerUplinkBps int64
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
// cell, runs the community server's search there, and the reply crosses
// back, resuming the session chain in watchAccount.
func (rt *remoteRouter) forward(r *runner, node int, plan vod.SessionPlan, idx int, gen uint64, v trace.VideoID, res vod.RequestResult, now time.Duration) bool {
	src := r.cell
	dst := rt.part.HomeOfVideo(v)
	if dst < 0 || dst == src || rt.remotes[dst] == nil {
		return false
	}
	rt.lookups[src]++
	rt.se.Send(src, dst, now, rt.key(src), func(at time.Duration) {
		provider, hops, msgs, ok := rt.remotes[dst].RemoteLookup(res.Span, v)
		_ = provider // cell-local to the home community; not addressable here
		rt.se.Send(dst, src, at, rt.key(dst), func(resumeAt time.Duration) {
			// One message to reach the remote community server, plus the
			// messages its search spent.
			r.res.Messages.Addn(int64(msgs + 1))
			res2 := res
			remote := false
			if ok {
				rt.hits[src]++
				res2.Source = vod.SourcePeer
				res2.Provider = -1 // lives in another cell's id space
				res2.Hops = hops + 1
				remote = true
			}
			r.watchAccount(node, plan, idx, gen, v, res2, now, resumeAt, remote)
		})
	})
	return true
}

// deliverRemote models a cross-community delivery: propagation over the
// query path plus playout-buffer fill at the provider's uplink rate. The
// provider's uplink queue lives in another cell and is deliberately not
// shared state — cross-community transfers see nominal capacity, an
// approximation DESIGN.md §12 spells out.
func (rt *remoteRouter) deliverRemote(r *runner, node int, res vod.RequestResult, chunkBytes int64, now time.Duration) time.Duration {
	total := chunkBytes * int64(r.cfg.ChunksPerVideo)
	fetch := total
	if res.PrefixCached {
		// The leading chunk is already local — only the remainder
		// crosses the remote provider's uplink.
		if fetch = total - chunkBytes; fetch < 0 {
			fetch = 0
		}
	}
	rt.bytes[r.cell] += fetch
	if res.PrefixCached {
		return now
	}
	lat := r.net.Latency(simnet.ServerID, simnet.NodeID(node))
	queryDelay := time.Duration(res.Hops+1) * lat
	buffer := int64(float64(r.cfg.BitrateBps) * r.cfg.PlayoutBuffer.Seconds() / 8 * r.cfg.WatchScale)
	if buffer > total {
		buffer = total
	}
	fill := time.Duration(float64(buffer) * 8 / float64(rt.peerUplinkBps) * float64(time.Second))
	return now + queryDelay + fill
}
