package emu

import (
	"fmt"
	"slices"
	"time"

	"github.com/socialtube/socialtube/internal/ctrl"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/trace"
)

// ControlPlaneConfig shapes the sharded, replicated tracker plane:
// Shards tracker shards, each holding the channels the rendezvous ring
// assigns it, replicated Replicas ways with anti-entropy gossip between
// the replicas of a shard. {1, 1} is a single tracker: one shard owns
// every channel and there is nobody to gossip with.
type ControlPlaneConfig struct {
	// Shards is the number of tracker shards (>= 1). Channels map to
	// shards by rendezvous hashing; every tracker-path RPC routes to the
	// shard owning the video's channel.
	Shards int
	// Replicas is the number of replicas per shard (>= 1). Peers fail
	// over between a shard's replicas; replicas reconcile membership by
	// gossip.
	Replicas int
	// RingSeed seeds the channel -> shard rendezvous hash and the gossip
	// partner rotation.
	RingSeed int64
	// GossipInterval is the anti-entropy period per replica (0 selects
	// the default; irrelevant for the 1x1 plane).
	GossipInterval time.Duration
	// GossipTimeout bounds one sync exchange (0 selects 1s).
	GossipTimeout time.Duration
	// SuspicionRounds is how many of a replica's own gossip rounds every
	// beat of a shard must stay frozen before the shard is declared dead
	// and its keys re-rendezvous onto survivors (0 selects the tracker
	// default). Counted in rounds, not wall-clock, so detection latency
	// is deterministic in the gossip schedule. Only meaningful on planes
	// with >= 2 shards. Validate refuses 1 and 2: one flip of the gossip
	// exchange order can leave a live shard's newest beat two rounds old,
	// so at those values healthy shards are declared dead; 3 held over
	// 200 exchange orders.
	SuspicionRounds int
}

// minSuspicionRounds is the lowest SuspicionRounds Validate accepts
// besides 0.
const minSuspicionRounds = 3

// DefaultControlPlaneConfig returns the 2x2 plane the sharded-outage
// figure runs: two shards, two replicas each, gossiping every 20ms so a
// recovered replica converges within a couple of workload beats.
func DefaultControlPlaneConfig() ControlPlaneConfig {
	return ControlPlaneConfig{
		Shards:         2,
		Replicas:       2,
		RingSeed:       1,
		GossipInterval: 20 * time.Millisecond,
		GossipTimeout:  time.Second,
	}
}

// Validate reports the first problem with the configuration.
func (c ControlPlaneConfig) Validate() error {
	switch {
	case c.Shards < 1 || c.Replicas < 1:
		return fmt.Errorf("%w: control plane needs >= 1 shard and >= 1 replica, got %dx%d",
			dist.ErrBadParameter, c.Shards, c.Replicas)
	case c.Replicas > 256:
		return fmt.Errorf("%w: %d replicas exceed the 8-bit version stamp", dist.ErrBadParameter, c.Replicas)
	case c.Shards > 64:
		return fmt.Errorf("%w: %d shards exceed the 64-bit dead-shard mask", dist.ErrBadParameter, c.Shards)
	case c.SuspicionRounds < 0 || c.SuspicionRounds > 0 && c.SuspicionRounds < minSuspicionRounds:
		return fmt.Errorf("%w: %d suspicion rounds (0 for the default, else >= %d)",
			dist.ErrBadParameter, c.SuspicionRounds, minSuspicionRounds)
	case c.GossipInterval < 0 || c.GossipTimeout < 0:
		return fmt.Errorf("%w: negative gossip timing", dist.ErrBadParameter)
	}
	return nil
}

// ControlPlane is the tracker plane behind a cluster: the routing every
// peer follows (the ring says which shard owns a channel, the replica
// lists which endpoints serve a shard, in failover order), and — when
// built by StartControlPlane — the in-process tracker replicas themselves,
// addressable for fault injection as plane.Shard(i).SetDown(...).
//
// Two constructors, one type: StartControlPlane launches the trackers
// in-process (RunClusterCtx, figures, tests); NewControlPlaneClient holds
// only the routing, for peers connecting to tracker processes started
// elsewhere, each by StartReplica (cmd/socialtube-node). Server-side
// methods are no-ops on a client-only plane.
type ControlPlane struct {
	ring *ctrl.Ring
	seed int64 // the ring's, which also seeds gossip partner rotation
	// replicas[shard][replica] is an endpoint address. The ring hashes
	// over shards only, so adding a replica to a shard moves no channel.
	replicas [][]string
	// trackers[shard][replica]; nil on a client-only plane.
	trackers [][]*Tracker
}

// NewControlPlaneClient builds a routing-only plane over already-running
// tracker endpoints: replicas[shard][replica] lists their addresses.
// ringSeed must match the seed the tracker processes were sharded with.
func NewControlPlaneClient(ringSeed int64, replicas [][]string) (*ControlPlane, error) {
	cp := &ControlPlane{}
	if err := cp.route(ringSeed, replicas); err != nil {
		return nil, err
	}
	return cp, nil
}

// route installs the ring and a private copy of the replica lists; every
// shard needs at least one non-empty address.
func (cp *ControlPlane) route(ringSeed int64, replicas [][]string) error {
	ring, err := ctrl.NewRing(ringSeed, len(replicas))
	if err != nil {
		return err
	}
	cp.ring, cp.seed, cp.replicas = ring, ringSeed, make([][]string, len(replicas))
	for i, reps := range replicas {
		if len(reps) == 0 {
			return fmt.Errorf("control plane: shard %d has no replicas", i)
		}
		if slices.Contains(reps, "") {
			return fmt.Errorf("control plane: shard %d has an empty replica address", i)
		}
		cp.replicas[i] = slices.Clone(reps)
	}
	return nil
}

// StartControlPlane launches Shards x Replicas trackers over the trace
// and wires each shard's replicas together with gossip. The tracker
// template tc supplies every tracker's parameters; each tracker draws its
// recommendations from its own stream, seeded at a deterministic offset
// from tc.Seed. The caller owns Stop.
func StartControlPlane(cfg ControlPlaneConfig, tc TrackerConfig, tr *trace.Trace, cond *Conditions) (*ControlPlane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// cp owns every tracker from the moment it starts, so any later
	// failure releases them all through Stop.
	cp := &ControlPlane{trackers: make([][]*Tracker, cfg.Shards)}
	addrs := make([][]string, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		for r := 0; r < cfg.Replicas; r++ {
			tk, err := startReplica(tc, s*cfg.Replicas+r, tr, cond)
			if err != nil {
				cp.Stop()
				return nil, fmt.Errorf("control plane shard %d replica %d: %w", s, r, err)
			}
			cp.trackers[s] = append(cp.trackers[s], tk)
			addrs[s] = append(addrs[s], tk.Addr())
		}
	}
	for s, reps := range cp.trackers {
		for r, tk := range reps {
			tk.StartGossip(cfg, addrs, s, r)
		}
	}
	if err := cp.route(cfg.RingSeed, addrs); err != nil {
		cp.Stop()
		return nil, err
	}
	return cp, nil
}

// StartReplica starts endpoint index of a routing-only plane (counted as
// EndpointIndex counts) in this process, listening on the endpoint's
// address: the tracker StartCluster would start there for cfg, seeded
// and conditioned from cfg.Seed, gossiping over the whole plane with
// cfg.ControlPlane's timing. The plane, not cfg, gives the shape and the
// ring seed. Started in one process per endpoint from one cfg, the
// trackers form the plane StartCluster starts in one. The caller owns
// Stop.
func StartReplica(plane *ControlPlane, index int, cfg ClusterConfig, tr *trace.Trace) (*Tracker, error) {
	pc := cfg.ControlPlane
	pc.Shards, pc.Replicas, pc.RingSeed = plane.NumShards(), 0, plane.seed
	for _, reps := range plane.replicas {
		pc.Replicas = max(pc.Replicas, len(reps))
	}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	tc, cond := cfg.elements()
	for s, reps := range plane.replicas {
		if r := index - plane.EndpointIndex(s, 0); r >= 0 && r < len(reps) {
			tc.Addr = reps[r]
			tk, err := startReplica(tc, index, tr, cond)
			if err != nil {
				return nil, err
			}
			tk.StartGossip(pc, plane.replicas, s, r)
			return tk, nil
		}
	}
	return nil, fmt.Errorf("%w: endpoint %d outside the plane", dist.ErrBadParameter, index)
}

// startReplica starts the plane's tracker at flat endpoint index, seeded
// at the index's offset from tc.Seed. On error it is not running.
func startReplica(tc TrackerConfig, index int, tr *trace.Trace, cond *Conditions) (*Tracker, error) {
	tc.Seed += int64(index) * 104_729
	tk, err := NewTracker(tc, tr, cond)
	if err == nil {
		err = tk.Start()
	}
	return tk, err
}

// NumShards returns the number of shards.
func (cp *ControlPlane) NumShards() int { return len(cp.replicas) }

// Owner returns the shard index owning a channel key.
func (cp *ControlPlane) Owner(key int64) int { return cp.ring.Owner(key) }

// OwnerExcluding returns the shard owning key with the dead-bitmask
// shards removed from the ring — the takeover owner peers route to after
// a whole-shard death.
func (cp *ControlPlane) OwnerExcluding(key int64, dead uint64) int {
	return cp.ring.OwnerExcluding(key, dead)
}

// ArmTakeover marks wall time since (UnixNano) as the start of the run's
// first whole-shard outage on every in-process replica's takeover latch;
// later calls are ignored.
func (cp *ControlPlane) ArmTakeover(since int64) {
	for _, tk := range cp.Trackers() {
		tk.takeoverSince.CompareAndSwap(0, since)
	}
}

// TakeoverMs returns the delay between the armed outage start and the
// earliest death verdict any replica declared at or after it — the
// takeover figure's time-to-takeover; 0 when no outage was armed or no
// replica has declared since.
func (cp *ControlPlane) TakeoverMs() float64 {
	var since, at int64
	for _, tk := range cp.Trackers() {
		if v := tk.declaredNano.Load(); v != 0 && (at == 0 || v < at) {
			at, since = v, tk.takeoverSince.Load()
		}
	}
	return float64(at-since) / 1e6
}

// Replicas returns a shard's endpoints in failover order (shared slice —
// do not mutate).
func (cp *ControlPlane) Replicas(shard int) []string { return cp.replicas[shard] }

// EndpointIndex returns the stable flat index of (shard, replica) — the
// circuit-breaker id peers key endpoint health by: shards laid out in
// order, a shard's replicas consecutively.
func (cp *ControlPlane) EndpointIndex(shard, replica int) int {
	idx := replica
	for _, reps := range cp.replicas[:shard] {
		idx += len(reps)
	}
	return idx
}

// ShardHandle addresses one shard's replicas for fault injection.
type ShardHandle struct {
	trackers []*Tracker
}

// Shard returns the addressable handle for shard i. On a client-only
// plane (or out-of-range i) the handle is empty and every method is a
// no-op, so fault drivers can target shards unconditionally.
func (cp *ControlPlane) Shard(i int) ShardHandle {
	if cp.trackers == nil || i < 0 || i >= len(cp.trackers) {
		return ShardHandle{}
	}
	return ShardHandle{trackers: cp.trackers[i]}
}

// SetDown starts (true) or ends (false) an outage on every replica of
// the shard.
func (s ShardHandle) SetDown(v bool) {
	for _, tk := range s.trackers {
		tk.SetDown(v)
	}
}

// Replicas returns the shard's replica count (0 for an empty handle).
func (s ShardHandle) Replicas() int { return len(s.trackers) }

// Replica returns one replica's tracker (nil when out of range), for
// single-replica fault targeting: plane.Shard(i).Replica(j).SetDown(true).
func (s ShardHandle) Replica(j int) *Tracker {
	if j < 0 || j >= len(s.trackers) {
		return nil
	}
	return s.trackers[j]
}

// SetDown starts or ends an outage on the whole plane. No-op on a
// client-only plane.
func (cp *ControlPlane) SetDown(v bool) {
	for _, tk := range cp.Trackers() {
		tk.SetDown(v)
	}
}

// Stop shuts every tracker down. No-op on a client-only plane.
func (cp *ControlPlane) Stop() {
	for _, tk := range cp.Trackers() {
		tk.Stop()
	}
}

// Trackers returns the plane's trackers shard-major (nil on a client-only
// plane).
func (cp *ControlPlane) Trackers() []*Tracker {
	var out []*Tracker
	for _, reps := range cp.trackers {
		out = append(out, reps...)
	}
	return out
}

// First returns shard 0 replica 0 (nil on a client-only plane).
func (cp *ControlPlane) First() *Tracker {
	if cp.trackers == nil {
		return nil
	}
	return cp.trackers[0][0]
}

// ServedBytes sums bytes served across the plane.
func (cp *ControlPlane) ServedBytes() int64 {
	var n int64
	for _, tk := range cp.Trackers() {
		n += tk.ServedBytes()
	}
	return n
}

// Counters merges every tracker's counter snapshot.
func (cp *ControlPlane) Counters() obs.Counters {
	var ctr obs.Counters
	for _, tk := range cp.Trackers() {
		ctr.Merge(tk.Counters())
	}
	return ctr
}
