package ctrl

import (
	"reflect"
	"testing"
)

// Two replicas with divergent membership converge to identical tables
// within a bounded number of push-pull rounds (here: one round, since a
// round exchanges full snapshots; the bound K=3 leaves room for the
// tracker-level gossip which batches tables).
func TestGossipConvergence(t *testing.T) {
	a := NewMemberTable(0)
	b := NewMemberTable(1)

	// Divergent writes on both sides, including a departure only A saw.
	a.Put(10, 1, "p1")
	a.Put(10, 2, "p2")
	a.Put(11, 3, "p3")
	a.RemoveEverywhere(2)
	b.Put(10, 4, "p4")
	b.Put(12, 5, "p5")

	const K = 3
	converged := false
	for round := 0; round < K; round++ {
		// Push-pull: A merges B's snapshot, B merges A's.
		sa, sb := a.Snapshot(), b.Snapshot()
		a.Merge(sb)
		b.Merge(sa)
		if reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("tables did not converge within %d rounds:\nA: %+v\nB: %+v", K, a.Snapshot(), b.Snapshot())
	}
	// The departure propagated: peer 2 is dead everywhere.
	for _, tab := range []*MemberTable{a, b} {
		if m := tab.Live(10); m[2] != "" {
			t.Fatalf("tombstoned peer 2 resurrected: %v", m)
		}
		want := map[int]string{1: "p1", 4: "p4"}
		if got := tab.Live(10); !reflect.DeepEqual(got, want) {
			t.Fatalf("Live(10) = %v, want %v", got, want)
		}
		if got := tab.Live(12); !reflect.DeepEqual(got, map[int]string{5: "p5"}) {
			t.Fatalf("Live(12) = %v", got)
		}
	}
}

// Merge is idempotent and order-independent: applying snapshots in any
// order and any number of times yields the same table.
func TestMergeCommutes(t *testing.T) {
	build := func() (*MemberTable, *MemberTable) {
		a, b := NewMemberTable(0), NewMemberTable(1)
		a.Put(1, 1, "x")
		a.Remove(1, 1)
		a.Put(2, 7, "y")
		b.Put(1, 1, "z") // same (key,id), different replica
		b.Put(3, 9, "w")
		return a, b
	}

	a1, b1 := build()
	sa, sb := a1.Snapshot(), b1.Snapshot()
	a1.Merge(sb)
	a1.Merge(sb) // idempotent
	fwd := a1.Snapshot()

	a2, b2 := build()
	b2.Merge(sa)
	b2.Merge(a2.Snapshot())
	rev := b2.Snapshot()

	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("merge order changed the table:\nfwd: %+v\nrev: %+v", fwd, rev)
	}
}

// A tombstone with a newer version beats a live entry, and a local write
// after a merge supersedes merged state (the clock advances past merged
// versions).
func TestTombstoneAndClockAdvance(t *testing.T) {
	a := NewMemberTable(0)
	b := NewMemberTable(1)
	a.Put(5, 1, "addr")
	b.Merge(a.Snapshot())
	if got := b.Live(5); got[1] != "addr" {
		t.Fatalf("merge lost live entry: %v", got)
	}
	// B sees the departure after merging; its clock must have advanced so
	// the tombstone versions above everything A wrote.
	b.Remove(5, 1)
	a.Merge(b.Snapshot())
	if got := a.Live(5); got != nil {
		t.Fatalf("tombstone did not win on A: %v", got)
	}
	// A re-registers the peer: the rejoin must beat the tombstone.
	a.Put(5, 1, "addr2")
	b.Merge(a.Snapshot())
	if got := b.Live(5); got[1] != "addr2" {
		t.Fatalf("rejoin lost to stale tombstone: %v", got)
	}
}

// PutExclusive moves a peer between keys atomically: live under the new
// key, tombstoned under every previous key.
func TestPutExclusive(t *testing.T) {
	tab := NewMemberTable(0)
	tab.PutExclusive(1, 42, "a")
	tab.PutExclusive(2, 42, "a")
	tab.PutExclusive(3, 42, "a")
	if got := tab.Live(1); got != nil {
		t.Fatalf("peer still live under old key 1: %v", got)
	}
	if got := tab.Live(2); got != nil {
		t.Fatalf("peer still live under old key 2: %v", got)
	}
	if got := tab.Live(3); got[42] != "a" {
		t.Fatalf("peer not live under current key 3: %v", got)
	}
	if n := liveRows(tab); n != 1 {
		t.Fatalf("live rows = %d, want 1", n)
	}
}

// liveRows counts the table's live rows, tombstones excluded.
func liveRows(t *MemberTable) int {
	n := 0
	for _, rec := range t.Snapshot() {
		if !rec.Dead {
			n++
		}
	}
	return n
}

func TestSnapshotSorted(t *testing.T) {
	tab := NewMemberTable(0)
	tab.Put(9, 3, "c")
	tab.Put(1, 7, "a")
	tab.Put(9, 1, "b")
	tab.Put(1, 2, "d")
	recs := tab.Snapshot()
	for i := 1; i < len(recs); i++ {
		prev, cur := recs[i-1], recs[i]
		if prev.Key > cur.Key || (prev.Key == cur.Key && prev.ID >= cur.ID) {
			t.Fatalf("snapshot not sorted at %d: %+v then %+v", i, prev, cur)
		}
	}
}
