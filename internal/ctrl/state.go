package ctrl

import (
	"sort"
	"sync"
)

// Entry is one membership fact: peer id -> listen address, stamped with a
// version and a liveness bit. Departures are tombstones (Dead=true) rather
// than deletions, so a replica that missed the leave learns about it from
// gossip instead of resurrecting the peer.
type Entry struct {
	Addr string
	Ver  uint64
	Dead bool
}

// SyncRecord is one table row on the wire: (key, id) plus the entry. Keys
// are the table's partition keys (channel ids, video ids); ids are peer
// ids.
type SyncRecord struct {
	Key  int64  `json:"key"`
	ID   int    `json:"id"`
	Addr string `json:"addr,omitempty"`
	Ver  uint64 `json:"ver"`
	Dead bool   `json:"dead,omitempty"`
}

// TableSync is a named table snapshot exchanged by anti-entropy gossip.
type TableSync struct {
	Table string       `json:"table"`
	Recs  []SyncRecord `json:"recs,omitempty"`
}

// MemberTable is a replicated membership map: key -> peer id -> Entry.
// Writes stamp entries with a version combining a table-local logical
// clock (high bits) and the owning replica's node id (low 8 bits), so
// concurrent writes at different replicas order deterministically and
// last-writer-wins merge is commutative, associative and idempotent —
// two replicas that exchange snapshots in any order converge to the same
// table.
type MemberTable struct {
	mu    sync.Mutex
	node  uint64 // replica id in [0, 256)
	clock uint64
	m     map[int64]map[int]Entry
}

// NewMemberTable builds an empty table owned by replica node (masked to
// 8 bits).
func NewMemberTable(node int) *MemberTable {
	return &MemberTable{
		node: uint64(node) & 0xFF,
		m:    make(map[int64]map[int]Entry),
	}
}

// SetNode re-stamps the table's owning replica id (masked to 8 bits).
// Call it before the first write: versions already issued keep their old
// node bits.
func (t *MemberTable) SetNode(node int) {
	t.mu.Lock()
	t.node = uint64(node) & 0xFF
	t.mu.Unlock()
}

func (t *MemberTable) tick() uint64 {
	t.clock++
	return t.clock<<8 | t.node
}

// Put records id as a live member under key.
func (t *MemberTable) Put(key int64, id int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.putLocked(key, id, addr)
}

func (t *MemberTable) putLocked(key int64, id int, addr string) {
	row := t.m[key]
	if row == nil {
		row = make(map[int]Entry)
		t.m[key] = row
	}
	row[id] = Entry{Addr: addr, Ver: t.tick()}
}

// PutExclusive records id as a live member under key and tombstones id
// under every other key of this table — exclusive membership, for state
// like a SocialTube peer's home channel where a peer belongs to exactly
// one overlay at a time.
func (t *MemberTable) PutExclusive(key int64, id int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, row := range t.m {
		if k == key {
			continue
		}
		if e, ok := row[id]; ok && !e.Dead {
			row[id] = Entry{Ver: t.tick(), Dead: true}
		}
	}
	t.putLocked(key, id, addr)
}

// Remove tombstones id under key (no-op if absent or already dead).
func (t *MemberTable) Remove(key int64, id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if row, ok := t.m[key]; ok {
		if e, ok := row[id]; ok && !e.Dead {
			row[id] = Entry{Ver: t.tick(), Dead: true}
		}
	}
}

// RemoveEverywhere tombstones id under every key — a leave or crash
// departure.
func (t *MemberTable) RemoveEverywhere(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range t.m {
		if e, ok := row[id]; ok && !e.Dead {
			row[id] = Entry{Ver: t.tick(), Dead: true}
		}
	}
}

// Live returns the live members under key as a fresh id -> addr map. The
// copy means callers can iterate (through a sorted view) exactly as they
// would over a plain map, and a concurrent gossip merge never mutates a
// map mid-selection.
func (t *MemberTable) Live(key int64) map[int]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.m[key]
	if len(row) == 0 {
		return nil
	}
	out := make(map[int]string, len(row))
	for id, e := range row {
		if !e.Dead {
			out[id] = e.Addr
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Snapshot returns every row (tombstones included) sorted by (key, id) —
// the deterministic wire form gossip exchanges.
func (t *MemberTable) Snapshot() []SyncRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, row := range t.m {
		n += len(row)
	}
	recs := make([]SyncRecord, 0, n)
	for key, row := range t.m {
		for id, e := range row {
			recs = append(recs, SyncRecord{Key: key, ID: id, Addr: e.Addr, Ver: e.Ver, Dead: e.Dead})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return recs[i].ID < recs[j].ID
	})
	return recs
}

// CompactTombstones deletes tombstones whose logical clock is more than
// horizon ticks behind the table's current clock, and returns how many it
// dropped. Convergence safety: every merge advances the local clock past
// every received version, so two gossiping replicas' clocks stay within
// one round of writes of each other; a tombstone horizon ticks old has
// therefore survived on the order of horizon/writes-per-round gossip
// rounds and been merged everywhere. Dropping it can only resurrect the
// member if some replica still holds the pre-tombstone live entry, which
// a generous horizon (the callers use thousands of ticks against
// per-round divergence of at most a few hundred writes) makes impossible
// in any schedule the emulator can produce. The horizon is compared on
// clock ticks, not wall time, so GC is as deterministic as the write
// schedule that fed the table.
func (t *MemberTable) CompactTombstones(horizon uint64) (dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock <= horizon {
		return 0
	}
	cut := t.clock - horizon
	for key, row := range t.m {
		for id, e := range row {
			if e.Dead && e.Ver>>8 < cut {
				delete(row, id)
				dropped++
			}
		}
		if len(row) == 0 {
			delete(t.m, key)
		}
	}
	return dropped
}

// Merge folds a snapshot in: a record wins iff its version is strictly
// newer than the local one. The local clock advances past every merged
// version so subsequent local writes supersede merged state.
func (t *MemberTable) Merge(recs []SyncRecord) (applied int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		if c := r.Ver >> 8; c > t.clock {
			t.clock = c
		}
		row := t.m[r.Key]
		if cur, ok := row[r.ID]; ok && cur.Ver >= r.Ver {
			continue
		}
		if row == nil {
			row = make(map[int]Entry)
			t.m[r.Key] = row
		}
		row[r.ID] = Entry{Addr: r.Addr, Ver: r.Ver, Dead: r.Dead}
		applied++
	}
	return applied
}
