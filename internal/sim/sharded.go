package sim

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedEngine runs N independent Engine event loops in bounded time
// epochs, exchanging the rare cross-shard events through ordered mailboxes
// drained at epoch barriers. It is the multi-core substrate for
// community-partitioned simulations: each shard hosts one or more
// near-disjoint communities, shards advance in parallel between barriers,
// and every cross-community interaction crosses a barrier.
//
// Determinism contract. Within an epoch a shard touches only its own
// engine and its own mailbox buffer, so shard execution is bitwise
// independent of goroutine scheduling. At a barrier, buffered sends are
// merged and delivered in ascending (at, key) order — the caller-supplied
// key, not the shard that happened to buffer first, breaks ties — and a
// send from epoch e is never delivered before the barrier that ends e.
// Consequently a parallel run and a Workers=1 sequential run of the same
// program fire exactly the same events at exactly the same virtual times,
// and a program whose keys are layout-independent (derived from a logical
// community id rather than a shard index) produces identical results
// under any shard count.
//
// Epoch barriers lie on the fixed grid t_k = k*Epoch. Empty stretches are
// skipped: the next barrier is the grid point at or after the earliest
// pending event across all shards, so a sparse schedule costs barriers
// proportional to occupied epochs, not to the horizon. A program that
// exchanges no mail — a lone shard above all — needs no grid: with Epoch 0
// the only barrier is the end of the run, and a one-shard engine fires
// exactly what Engine.RunCtx fires and stops its clock where that does.
type ShardedEngine struct {
	shards  []*Engine
	epoch   time.Duration
	workers int
	now     time.Duration

	// outbox[s] buffers shard s's cross-shard sends during the current
	// epoch; only shard s's goroutine appends to it between barriers.
	outbox [][]mailItem
	// scratch is the barrier-time merge buffer, reused across epochs.
	scratch []mailItem

	stats  []ShardStat
	epochs uint64

	// order is the sequence a parallel epoch hands shards to workers in,
	// lastBusy each shard's wall time in the previous epoch and next the
	// index into order of the first shard no worker has taken yet.
	order    []int
	lastBusy []time.Duration
	next     atomic.Int64
}

// mailItem is one buffered cross-shard event.
type mailItem struct {
	dst int
	at  time.Duration
	key uint64
	h   Handler
	arg uint64
}

// ShardStat is one shard's load accounting, surfaced so experiments can
// report per-shard imbalance. Busy measures real time and is therefore
// environmental: it carries json:"-" so same-seed results marshal
// byte-identically regardless of machine load — the same convention as
// obs.MemUsage.
type ShardStat struct {
	// Shard is the shard index, and Stats its engine's.
	Shard int `json:"shard"`
	Stats
	// MailSent counts cross-shard events this shard buffered; MailRecv
	// counts barrier deliveries into this shard.
	MailSent uint64 `json:"mailSent"`
	MailRecv uint64 `json:"mailRecv"`
	// Busy is the wall-clock time this shard's engine spent executing
	// epochs. Summed over shards against workers × wall it gives the
	// run's utilisation; the largest share of the sum is its critical
	// path.
	Busy time.Duration `json:"-"`
}

// ShardedConfig configures a ShardedEngine.
type ShardedConfig struct {
	// Shards is the number of per-shard event loops (≥1).
	Shards int
	// Epoch is the barrier interval. Cross-shard sends are delivered at
	// the barrier ending the epoch they were sent in, so Epoch bounds the
	// extra virtual latency a cross-shard event observes. 0 means no grid:
	// one epoch to the horizon (or, without a horizon, until every queue
	// drains), mail delivered where it ends.
	Epoch time.Duration
	// Workers bounds the goroutines running shard epochs; 0 means
	// GOMAXPROCS. Workers=1 runs every epoch on the calling goroutine —
	// the sequential mode the determinism tests compare against.
	Workers int
}

// NewShardedEngine builds a sharded engine with empty queues at virtual
// time zero.
func NewShardedEngine(cfg ShardedConfig) (*ShardedEngine, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("sim: sharded engine needs ≥1 shard, got %d", cfg.Shards)
	}
	if cfg.Epoch < 0 {
		return nil, fmt.Errorf("sim: sharded engine needs a non-negative epoch, got %v", cfg.Epoch)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Shards {
		workers = cfg.Shards
	}
	se := &ShardedEngine{
		shards:   make([]*Engine, cfg.Shards),
		epoch:    cfg.Epoch,
		workers:  workers,
		outbox:   make([][]mailItem, cfg.Shards),
		stats:    make([]ShardStat, cfg.Shards),
		order:    make([]int, cfg.Shards),
		lastBusy: make([]time.Duration, cfg.Shards),
	}
	for i := range se.shards {
		se.shards[i] = NewEngine()
		se.stats[i].Shard = i
		se.order[i] = i
	}
	return se, nil
}

// Shard returns shard i's engine. Schedule local events through it; during
// RunCtx, an event firing on shard i may only touch shard i's engine, and
// must use Send for everything cross-shard.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Now returns the last completed barrier time. Without a grid that is
// where the shards stopped: the horizon, or the last event fired when
// every queue drained first — Engine.Now's semantics.
func (se *ShardedEngine) Now() time.Duration { return se.now }

// Epochs returns the number of executed (non-skipped) epochs.
func (se *ShardedEngine) Epochs() uint64 { return se.epochs }

// Send buffers a cross-shard event, h(now, arg), from shard src to shard
// dst. Call it from inside an event firing on shard src while RunCtx is in
// progress: each shard owns its buffer between barriers. The event is
// delivered into dst's engine at the barrier ending the current epoch, to
// fire no earlier than max(at, barrier time); deliveries are ordered by
// ascending (at, key) across all sources. Keys must be unique per barrier
// for a total order, and derived from logical ids (not shard indexes)
// when results must be independent of the community→shard layout.
// Sending to the local shard is allowed and still crosses the barrier —
// that is what makes a partition-keyed program's results independent of
// how partitions map to shards.
func (se *ShardedEngine) Send(src, dst int, at time.Duration, key uint64, h Handler, arg uint64) {
	if src < 0 || src >= len(se.shards) || dst < 0 || dst >= len(se.shards) || h == nil {
		return
	}
	se.outbox[src] = append(se.outbox[src], mailItem{dst: dst, at: at, key: key, h: h, arg: arg})
	se.stats[src].MailSent++
}

// nextEventAt returns the earliest queued event time across shards, or
// false when every queue is empty.
func (se *ShardedEngine) nextEventAt() (time.Duration, bool) {
	var (
		best  time.Duration
		found bool
	)
	for _, e := range se.shards {
		if len(e.queue) == 0 {
			continue
		}
		if at := e.queue[0].at; !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}

// gridCeil returns the epoch-grid point at or after t.
func (se *ShardedEngine) gridCeil(t time.Duration) time.Duration {
	if t <= 0 {
		return 0
	}
	k := (t + se.epoch - 1) / se.epoch
	return k * se.epoch
}

// RunCtx executes the sharded schedule until every queue drains or the
// barrier clock reaches horizon (0 means no horizon). Unlike Engine.RunCtx
// there is no event budget: epochs are the unit of progress. Every Send
// made inside an epoch is delivered at the barrier that ends it, so with
// no queued event on any shard the run has drained. A horizon return
// leaves the remaining schedule intact for a later call and, like
// Engine.RunCtx, advances the clock to the horizon itself.
//
// Cancellation is checked at every barrier and, inside an epoch, by each
// shard every ctxCheckInterval events, so a long epoch (a gridless run is
// a single one) still cancels promptly. A cancelled run returns ctx.Err()
// and is not resumable: it may stop mid-epoch with mail undelivered, so
// its caller discards it. A nil ctx behaves like context.Background().
func (se *ShardedEngine) RunCtx(ctx context.Context, horizon time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		next, ok := se.nextEventAt()
		if !ok {
			return nil // drained
		}
		// Skip empty stretches: barrier at the grid point covering the
		// earliest pending work, but always strictly past the current
		// clock so every epoch advances time. Without a grid the epoch
		// runs to the horizon (0: until the queues drain).
		barrier := horizon
		if se.epoch > 0 {
			barrier = se.gridCeil(next)
			if barrier <= se.now {
				barrier = se.gridCeil(se.now + 1)
			}
		}
		if horizon > 0 && barrier > horizon {
			if next > horizon {
				// All remaining work lies beyond the horizon.
				se.now = horizon
				return nil
			}
			// In-horizon events remain: run a final partial epoch ending
			// on the horizon itself.
			barrier = horizon
		}
		se.runEpoch(ctx, barrier)
		if err := ctx.Err(); err != nil {
			return err // a shard may have stopped mid-epoch: no barrier reached
		}
		if se.epoch == 0 {
			barrier = 0 // no grid: the barrier is where the shards stopped
			for _, e := range se.shards {
				barrier = max(barrier, e.now)
			}
		}
		se.deliver(barrier)
		se.now = barrier
		se.epochs++
		if horizon > 0 && se.now >= horizon {
			return nil
		}
	}
}

// runEpoch advances every shard's engine to the barrier, in parallel when
// workers > 1. A cancelled ctx stops each shard within ctxCheckInterval
// events; RunCtx sees the cancellation once the epoch returns.
//
// A parallel epoch hands shards out longest-first by their busy time in the
// previous epoch (ties by index), so the heaviest cell starts at once
// instead of being the last one a worker picks up while the others idle.
// The order only decides which worker runs which shard when: shards share
// no state between barriers, so results do not depend on it.
func (se *ShardedEngine) runEpoch(ctx context.Context, barrier time.Duration) {
	if se.workers == 1 {
		for i := range se.shards {
			se.runShard(ctx, i, barrier)
		}
		return
	}
	slices.SortFunc(se.order, func(a, b int) int {
		if c := cmp.Compare(se.lastBusy[b], se.lastBusy[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	se.next.Store(0)
	var wg sync.WaitGroup
	for w := 0; w < se.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := se.next.Add(1) - 1; int(k) < len(se.order); k = se.next.Add(1) - 1 {
				se.runShard(ctx, se.order[k], barrier)
			}
		}()
	}
	wg.Wait()
}

// runShard advances shard i to the barrier and accounts its wall time. Each
// shard is run by exactly one goroutine per epoch, so its stats slot needs
// no lock.
func (se *ShardedEngine) runShard(ctx context.Context, i int, barrier time.Duration) {
	start := time.Now()
	_ = se.shards[i].RunCtx(ctx, barrier, 0) // its only error is ctx's, which RunCtx checks
	se.lastBusy[i] = time.Since(start)
	se.stats[i].Busy += se.lastBusy[i]
}

// deliver drains every outbox into the destination engines in ascending
// (at, key) order, clamping fire times to the barrier. Keys are unique, so
// the sort needs no stability and allocates nothing.
func (se *ShardedEngine) deliver(barrier time.Duration) {
	se.scratch = se.scratch[:0]
	for s := range se.outbox {
		se.scratch = append(se.scratch, se.outbox[s]...)
		se.outbox[s] = se.outbox[s][:0]
	}
	if len(se.scratch) == 0 {
		return
	}
	slices.SortFunc(se.scratch, func(a, b mailItem) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.key, b.key))
	})
	for _, m := range se.scratch {
		se.shards[m.dst].Schedule(max(m.at, barrier), m.h, m.arg)
		se.stats[m.dst].MailRecv++
	}
}

// Stats returns the merged engine accounting: event counts summed across
// shards, heap high-water the maximum of any shard (per-shard queues are
// disjoint, so the max is each loop's true peak).
func (se *ShardedEngine) Stats() Stats {
	var st Stats
	for _, e := range se.shards {
		es := e.Stats()
		st.EventsFired += es.EventsFired
		st.EventsScheduled += es.EventsScheduled
		if es.HeapHighWater > st.HeapHighWater {
			st.HeapHighWater = es.HeapHighWater
		}
	}
	return st
}

// ShardStats returns per-shard load accounting (a copy), refreshed from
// the underlying engines.
func (se *ShardedEngine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(se.stats))
	for i, e := range se.shards {
		out[i] = se.stats[i]
		out[i].Stats = e.Stats()
	}
	return out
}
