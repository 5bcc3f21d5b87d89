package ctrl

import (
	"sort"
	"sync"
)

// Beat is one replica's heartbeat on the wire: a flat endpoint key
// (shard<<8 | replica) and a beat counter that only its owner advances.
// Beats merge by max, so they gossip transitively: a replica that cannot
// reach shard S directly still sees S's beats advance through any common
// gossip partner.
type Beat struct {
	Key int   `json:"key"`
	Ver int64 `json:"ver"`
}

// ShardStatus is a replicated shard-liveness verdict: Dead plus an LWW
// version stamped like MemberTable entries (status clock in the high
// bits, declaring endpoint in the low 8), so a later revival always
// supersedes an earlier death and merges commute.
type ShardStatus struct {
	Shard int    `json:"shard"`
	Dead  bool   `json:"dead,omitempty"`
	Ver   uint64 `json:"ver"`
}

// Liveness is one tracker replica's failure detector over the plane.
// Suspicion is counted in the replica's own gossip rounds — a shard whose
// beats all stop advancing for suspicionRounds consecutive local rounds
// is declared dead — so detection latency is seed- and
// schedule-deterministic (rounds, not wall-clock) and a paused plane
// never falsely expires anyone. Declarations and revivals are ShardStatus
// records gossiped plane-wide; every status transition (local or adopted
// from a merge) bumps a monotone ring epoch that rides on tracker RPC
// responses so peers can invalidate their routing view exactly when the
// live shard set changes.
type Liveness struct {
	mu        sync.Mutex
	node      uint64 // flat endpoint index, masked to 8 bits for stamps
	shards    int
	shard     int // own shard: never self-declared dead
	self      int // own beat key
	suspicion int64

	round  int64 // local gossip rounds; drives suspicion only
	sclock uint64
	beats  map[int]int64
	seen   map[int]int64 // beat key -> local round its beat last advanced
	status map[int]ShardStatus
	epoch  uint64
}

// NewLiveness builds the detector for replica (shard, replica) of a
// shards-wide plane. suspicionRounds is how many of this replica's own
// gossip rounds a shard's beats must all stay frozen before it is
// declared dead; values < 1 fall back to 1. Only the first 64 shards can
// be declared (the dead set is a uint64 bitmask on the wire); planes are
// validated to that bound where the detector is wired up.
func NewLiveness(shards, shard, replica, suspicionRounds int) *Liveness {
	if suspicionRounds < 1 {
		suspicionRounds = 1
	}
	self := shard<<8 | replica
	return &Liveness{
		node:      uint64(self) & 0xFF,
		shards:    shards,
		shard:     shard,
		self:      self,
		suspicion: int64(suspicionRounds),
		beats:     map[int]int64{self: 0},
		seen:      map[int]int64{self: 0},
		status:    make(map[int]ShardStatus),
	}
}

func (l *Liveness) tickLocked() uint64 {
	l.sclock++
	return l.sclock<<8 | l.node
}

// neverHeardGrace is the suspicion windows a never-heard shard gets before
// its verdict, as a plane's elements start one by one: 20 windows (2 s at
// the default 5 rounds of 20 ms) cover the ~1.5 s stagger of elements started
// by hand, and a shard that never starts is still declared at round
// neverHeardGrace × suspicion, within 2 s.
const neverHeardGrace = 20

// Tick advances one local gossip round: bumps the replica's own beat and
// runs the suspicion check. A remote shard every one of whose known beats
// has been frozen for suspicion rounds is declared dead; the returned
// slice names the shards this call transitioned to dead (for counters and
// takeover timestamps). A shard no beat has ever been seen from is
// declared once the never-heard grace has passed — a shard dark since
// startup must still be declared, not waited on forever.
func (l *Liveness) Tick() (died []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.round++
	l.beats[l.self]++
	l.seen[l.self] = l.round
	if l.round < l.suspicion {
		return nil
	}
	for s := 0; s < l.shards; s++ {
		if s == l.shard || s >= 64 {
			continue
		}
		if st, ok := l.status[s]; ok && st.Dead {
			continue
		}
		heard, fresh := false, false
		for key, at := range l.seen {
			if key>>8 == s {
				heard = true
				fresh = fresh || l.round-at < l.suspicion
			}
		}
		if fresh || !heard && l.round < neverHeardGrace*l.suspicion {
			continue
		}
		l.status[s] = ShardStatus{Shard: s, Dead: true, Ver: l.tickLocked()}
		l.epoch++
		died = append(died, s)
	}
	return died
}

// MergeBeats folds a partner's beat snapshot in (max wins) and returns
// the shards this call revived: a dead-declared shard whose beat advanced
// is alive again, stamped with a fresh status version so the revival
// outranks the earlier death everywhere it gossips to.
func (l *Liveness) MergeBeats(bs []Beat) (revived []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range bs {
		if b.Key < 0 || b.Ver <= l.beats[b.Key] {
			continue
		}
		l.beats[b.Key] = b.Ver
		l.seen[b.Key] = l.round
		s := b.Key >> 8
		if st, ok := l.status[s]; ok && st.Dead {
			l.status[s] = ShardStatus{Shard: s, Ver: l.tickLocked()}
			l.epoch++
			revived = append(revived, s)
		}
	}
	return revived
}

// MergeStatus folds a partner's status records in, strictly-newer-wins,
// and returns the dead/alive transitions it adopted. The status clock
// advances past every merged version so this replica's next declaration
// supersedes everything it has seen. The epoch merges by max on top of
// the per-transition bumps; both sides of any exchange converge to the
// same (status, epoch) regardless of order.
func (l *Liveness) MergeStatus(ss []ShardStatus, remoteEpoch uint64) (died, revived []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range ss {
		if r.Shard < 0 || r.Shard >= l.shards {
			continue
		}
		if c := r.Ver >> 8; c > l.sclock {
			l.sclock = c
		}
		cur, ok := l.status[r.Shard]
		if ok && cur.Ver >= r.Ver {
			continue
		}
		// Never adopt a death verdict about our own shard: we are alive
		// to say so, and our next Tick's beat will revive us anyway —
		// skipping the flap keeps the epoch from churning.
		if r.Dead && r.Shard == l.shard {
			continue
		}
		l.status[r.Shard] = r
		if r.Dead != cur.Dead {
			l.epoch++
			if r.Dead {
				died = append(died, r.Shard)
			} else {
				revived = append(revived, r.Shard)
			}
		}
	}
	if remoteEpoch > l.epoch {
		l.epoch = remoteEpoch
	}
	return died, revived
}

// Beats returns every known beat sorted by key — the wire form.
func (l *Liveness) Beats() []Beat {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Beat, 0, len(l.beats))
	for k, v := range l.beats {
		out = append(out, Beat{Key: k, Ver: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Status returns every shard-status record sorted by shard — the wire
// form. Shards never declared have no record.
func (l *Liveness) Status() []ShardStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ShardStatus, 0, len(l.status))
	for _, st := range l.status {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// Epoch returns the ring epoch: 0 until the first status transition,
// monotone thereafter. Peers discard a routing view whenever a response
// carries a strictly larger epoch.
func (l *Liveness) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// DeadMask returns the dead shards as a bitmask (bit s = shard s dead),
// the form Ring.OwnerExcluding consumes and tracker responses carry.
func (l *Liveness) DeadMask() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var mask uint64
	for s, st := range l.status {
		if st.Dead && s < 64 {
			mask |= 1 << uint(s)
		}
	}
	return mask
}
