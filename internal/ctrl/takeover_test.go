package ctrl

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestRingRemoveOneShardMovesOnlyItsKeys pins the rebalance property the
// takeover design leans on: excluding one shard from the ring moves
// exactly the keys that shard owned — every surviving shard keeps every
// key it already had (no shuffle among survivors).
func TestRingRemoveOneShardMovesOnlyItsKeys(t *testing.T) {
	for _, shards := range []int{2, 3, 5, 8} {
		r, err := NewRing(42, shards)
		if err != nil {
			t.Fatal(err)
		}
		for dead := 0; dead < shards && dead < 64; dead++ {
			mask := uint64(1) << uint(dead)
			moved := 0
			for key := int64(0); key < 2000; key++ {
				before := r.Owner(key)
				after := r.OwnerExcluding(key, mask)
				if after == dead {
					t.Fatalf("shards=%d dead=%d key=%d: reassigned to the dead shard", shards, dead, key)
				}
				if before != dead && after != before {
					t.Fatalf("shards=%d dead=%d key=%d: surviving key shuffled %d -> %d",
						shards, dead, key, before, after)
				}
				if before == dead {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("shards=%d dead=%d: dead shard owned no keys, property vacuous", shards, dead)
			}
		}
	}
}

// TestRingReAddRestoresAssignmentExactly pins the inverse: clearing the
// dead mask restores the original assignment bit for bit, so a takeover
// followed by a revival routes every key exactly where it started.
func TestRingReAddRestoresAssignmentExactly(t *testing.T) {
	r, err := NewRing(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for key := int64(0); key < 2000; key++ {
		if got, want := r.OwnerExcluding(key, 0), r.Owner(key); got != want {
			t.Fatalf("key %d: empty mask diverges: %d != %d", key, got, want)
		}
	}
	// Through a kill-and-revive round trip the exclusion answer must be a
	// pure function of the mask — same mask, same owner.
	mask := uint64(1) << 2
	first := make([]int, 2000)
	for key := int64(0); key < 2000; key++ {
		first[key] = r.OwnerExcluding(key, mask)
	}
	for key := int64(0); key < 2000; key++ {
		if got := r.OwnerExcluding(key, mask); got != first[key] {
			t.Fatalf("key %d: exclusion owner not stable: %d != %d", key, got, first[key])
		}
	}
}

// TestRingOwnerExcludingDegenerateMasks: an all-dead or nonsense mask
// falls back to the healthy owner instead of panicking or inventing a
// shard.
func TestRingOwnerExcludingDegenerateMasks(t *testing.T) {
	r, err := NewRing(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for key := int64(0); key < 100; key++ {
		if got, want := r.OwnerExcluding(key, 0b111), r.Owner(key); got != want {
			t.Fatalf("key %d: all-dead mask should fall back to Owner, got %d want %d", key, got, want)
		}
		if got := r.OwnerExcluding(key, ^uint64(0)); got != r.Owner(key) {
			t.Fatalf("key %d: full mask should fall back to Owner, got %d", key, got)
		}
	}
}

// TestCompactTombstonesChurn churns 10k members through join+leave and
// pins that GC holds the table to the live working set: without
// compaction the table keeps one tombstone per departed member, with it
// the size stays bounded by the horizon.
func TestCompactTombstonesChurn(t *testing.T) {
	tbl := NewMemberTable(0)
	const members = 10_000
	const horizon = 512
	for id := 0; id < members; id++ {
		tbl.Put(int64(id%16), id, fmt.Sprintf("addr-%d", id))
		if id >= 100 {
			tbl.Remove(int64((id-100)%16), id-100) // all but the trailing 100 leave again
		}
		if id%64 == 0 {
			tbl.CompactTombstones(horizon)
		}
	}
	tbl.CompactTombstones(horizon)
	// Live set: the trailing 100 members. Tombstones: only those younger
	// than the horizon can remain. 2 ticks per churned member bounds the
	// surviving tombstones by horizon/2.
	if got := liveRows(tbl); got != 100 {
		t.Fatalf("live count = %d, want 100", got)
	}
	if got, limit := len(tbl.Snapshot()), 100+horizon; got > limit {
		t.Fatalf("table size %d exceeds GC bound %d after 10k-member churn", got, limit)
	}
	// And GC must never touch live rows.
	if tbl.Live(int64(members-1)%16) == nil && liveRows(tbl) == 0 {
		t.Fatal("GC deleted live entries")
	}
}

// TestCompactTombstonesConvergenceSafe: replicas that gossip regularly
// may GC independently and still converge — a tombstone dropped on both
// sides after full propagation cannot resurrect the member.
func TestCompactTombstonesConvergenceSafe(t *testing.T) {
	a, b := NewMemberTable(0), NewMemberTable(1)
	a.Put(1, 7, "x")
	b.Merge(a.Snapshot())
	a.Remove(1, 7)
	b.Merge(a.Snapshot()) // tombstone fully propagated
	// Age both clocks well past the horizon, then GC both sides.
	for i := 0; i < 2000; i++ {
		a.Put(2, 1000+i, "y")
	}
	b.Merge(a.Snapshot())
	const horizon = 512
	if n := a.CompactTombstones(horizon); n == 0 {
		t.Fatal("expected a's tombstone to be collected")
	}
	b.CompactTombstones(horizon)
	// One more gossip round trip in both orders: member 7 must stay gone.
	a.Merge(b.Snapshot())
	b.Merge(a.Snapshot())
	if m := a.Live(1); m != nil {
		t.Fatalf("member resurrected on a after GC: %v", m)
	}
	if m := b.Live(1); m != nil {
		t.Fatalf("member resurrected on b after GC: %v", m)
	}
}

// TestLivenessSuspicionDeclaresDeadShard: a shard whose beats freeze is
// declared dead after exactly the suspicion window, in rounds, never
// earlier — and the detector never declares its own shard.
func TestLivenessSuspicionDeclaresDeadShard(t *testing.T) {
	l := NewLiveness(2, 0, 0, 3)
	// Shard 1 beats once, then goes silent.
	l.MergeBeats([]Beat{{Key: 1<<8 | 0, Ver: 1}})
	var diedAt int
	for round := 1; round <= 10; round++ {
		if died := l.Tick(); len(died) > 0 {
			if died[0] != 1 {
				t.Fatalf("declared shard %d dead, want 1", died[0])
			}
			diedAt = round
			break
		}
	}
	if diedAt != 3 {
		t.Fatalf("shard declared dead at round %d, want exactly suspicion=3", diedAt)
	}
	if got := l.DeadMask(); got != 1<<1 {
		t.Fatalf("dead mask = %b, want shard 1 only", got)
	}
	if got := l.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after one transition, want 1", got)
	}
}

// TestLivenessRevivalOnBeatAdvance: a beat advancing for a dead-declared
// shard revives it, bumps the epoch again, and the revival's LWW stamp
// outranks the death when gossiped back.
func TestLivenessRevivalOnBeatAdvance(t *testing.T) {
	l := NewLiveness(2, 0, 0, 2)
	l.MergeBeats([]Beat{{Key: 1 << 8, Ver: 1}})
	for i := 0; i < 4; i++ {
		l.Tick()
	}
	if l.DeadMask() != 1<<1 {
		t.Fatalf("setup: shard 1 should be dead, mask=%b", l.DeadMask())
	}
	revived := l.MergeBeats([]Beat{{Key: 1 << 8, Ver: 5}})
	if len(revived) != 1 || revived[0] != 1 {
		t.Fatalf("revived = %v, want [1]", revived)
	}
	if l.DeadMask() != 0 {
		t.Fatalf("dead mask = %b after revival, want 0", l.DeadMask())
	}
	if l.Epoch() != 2 {
		t.Fatalf("epoch = %d after death+revival, want 2", l.Epoch())
	}
	// A peer that still holds the stale death verdict loses the merge.
	stale := NewLiveness(2, 0, 1, 2)
	stale.MergeBeats([]Beat{{Key: 1 << 8, Ver: 1}})
	for i := 0; i < 4; i++ {
		stale.Tick()
	}
	if stale.DeadMask() != 1<<1 {
		t.Fatalf("setup: stale replica should hold shard 1's death, mask=%b", stale.DeadMask())
	}
	stale.MergeStatus(l.Status(), l.Epoch())
	if stale.DeadMask() != 0 {
		t.Fatalf("stale replica kept the death verdict after merging the revival")
	}
}

// TestLivenessStatusMergeConverges: two detectors that independently
// declare different shards converge to the same status set, dead mask
// and epoch after exchanging snapshots in either order.
func TestLivenessStatusMergeConverges(t *testing.T) {
	a := NewLiveness(4, 0, 0, 2)
	b := NewLiveness(4, 1, 0, 2)
	// Keep each other alive, let shards 2 and 3 go dark after one beat.
	dark := []Beat{{Key: 2 << 8, Ver: 1}, {Key: 3 << 8, Ver: 1}}
	a.MergeBeats(dark)
	b.MergeBeats(dark)
	for i := 0; i < 4; i++ {
		a.MergeBeats(b.Beats())
		b.MergeBeats(a.Beats())
		a.Tick()
		b.Tick()
	}
	if a.DeadMask() == 0 || b.DeadMask() == 0 {
		t.Fatalf("setup: both sides should have declared deaths (a=%b b=%b)", a.DeadMask(), b.DeadMask())
	}
	a.MergeStatus(b.Status(), b.Epoch())
	b.MergeStatus(a.Status(), a.Epoch())
	a.MergeStatus(b.Status(), b.Epoch())
	b.MergeStatus(a.Status(), a.Epoch())
	if !reflect.DeepEqual(a.Status(), b.Status()) {
		t.Fatalf("status diverged:\na=%v\nb=%v", a.Status(), b.Status())
	}
	if a.DeadMask() != b.DeadMask() || a.DeadMask() != 0b1100 {
		t.Fatalf("dead masks: a=%b b=%b, want both 1100", a.DeadMask(), b.DeadMask())
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverged: a=%d b=%d", a.Epoch(), b.Epoch())
	}
}

// TestLivenessRejectsOwnShardDeath: a replica never adopts a death
// verdict about its own shard from gossip — it is alive to refute it.
func TestLivenessRejectsOwnShardDeath(t *testing.T) {
	l := NewLiveness(2, 1, 0, 2)
	l.MergeStatus([]ShardStatus{{Shard: 1, Dead: true, Ver: 1 << 8}}, 1)
	if l.DeadMask() != 0 {
		t.Fatalf("replica adopted its own shard's death: mask=%b", l.DeadMask())
	}
}

// TestPartitionHealZeroLossMerge pins the acceptance criterion at the
// table layer, byte for byte: two replicas that take disjoint writes
// while cut apart and then merge on heal produce exactly the snapshot a
// never-partitioned run (same writes, then gossip) produces. Stamps are
// (local clock, node) pairs, so identical per-replica write sequences
// yield identical versions whether or not gossip ran in between — the
// healed table is indistinguishable from the unpartitioned one.
func TestPartitionHealZeroLossMerge(t *testing.T) {
	writes := func(a, b *MemberTable) {
		for i := 0; i < 200; i++ {
			a.Put(int64(i%7), i, fmt.Sprintf("a-%d", i))
			b.Put(int64(i%5), 10_000+i, fmt.Sprintf("b-%d", i))
			if i%3 == 0 {
				a.Remove(int64(i%7), i)
			}
		}
	}
	snap := func(tb *MemberTable) []byte {
		j, err := json.Marshal(tb.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Reference: both replicas take their writes, then full gossip.
	ra, rb := NewMemberTable(0), NewMemberTable(1)
	writes(ra, rb)
	ra.Merge(rb.Snapshot())
	rb.Merge(ra.Snapshot())
	want := snap(ra)
	if string(want) != string(snap(rb)) {
		t.Fatal("reference replicas did not converge")
	}

	// Partitioned: identical writes land while the cut is up (no gossip),
	// then heal and merge both directions.
	pa, pb := NewMemberTable(0), NewMemberTable(1)
	writes(pa, pb)
	if string(snap(pa)) == string(want) {
		t.Fatal("sanity: side a should be missing side b's writes before heal")
	}
	pa.Merge(pb.Snapshot())
	pb.Merge(pa.Snapshot())
	if got := snap(pa); string(got) != string(want) {
		t.Fatalf("healed side a diverges from full-gossip reference\n got %s\nwant %s", got, want)
	}
	if got := snap(pb); string(got) != string(want) {
		t.Fatalf("healed side b diverges from full-gossip reference\n got %s\nwant %s", got, want)
	}
}
