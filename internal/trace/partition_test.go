package trace

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// partitionFixture builds a tiny hand-wired trace: 3 categories, 3
// channels (one per category), 6 users with varied subscription shapes.
func partitionFixture(t *testing.T) *Trace {
	t.Helper()
	tr := &Trace{
		Seed:       7,
		Categories: 3,
		Start:      time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
		End:        time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	// Channels 0-2 cover categories 0-2; channel 3 is a second category-1
	// channel so a user can hold a category majority across channels.
	for c, cat := range []CategoryID{0, 1, 2, 1} {
		tr.Channels = append(tr.Channels, Channel{
			ID:         ChannelID(c),
			Primary:    cat,
			Categories: []CategoryID{cat},
		})
	}
	for v := 0; v < 6; v++ {
		ch := ChannelID(v % 3)
		tr.Videos = append(tr.Videos, Video{ID: VideoID(v), Channel: ch, Category: CategoryID(v % 3)})
		tr.Channels[ch].Videos = append(tr.Channels[ch].Videos, VideoID(v))
	}
	sub := func(u UserID, chans ...ChannelID) User {
		usr := User{ID: u, Subscriptions: chans}
		for _, ch := range chans {
			tr.Channels[ch].Subscribers = append(tr.Channels[ch].Subscribers, u)
		}
		return usr
	}
	tr.Users = []User{
		sub(0, 0),                           // home 0 (single subscription)
		sub(1, 1, 3, 2),                     // two category-1 channels → home 1 (majority)
		sub(2, 0, 1),                        // tie 0 vs 1 → smallest id → home 0
		sub(3, 2),                           // home 2
		{ID: 4, Interests: []CategoryID{2}}, // no subs → first interest → home 2
		{ID: 5},                             // nothing → 5 % 3 = 2
	}
	return tr
}

func TestPartitionByCategoryHomes(t *testing.T) {
	tr := partitionFixture(t)
	p, err := PartitionByCategory(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantHome := []int{0, 1, 0, 2, 2, 2}
	for u, want := range wantHome {
		if p.Home[u] != want {
			t.Fatalf("user %d home %d, want %d", u, p.Home[u], want)
		}
	}
	// Cells hold their users in ascending global order, renumbered densely.
	if got := p.Cells[0].Users; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("cell 0 users %v, want [0 2]", got)
	}
	if got := p.Cells[2].Users; len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("cell 2 users %v, want [3 4 5]", got)
	}
	for c := range p.Cells {
		cell := p.Cells[c].Trace
		for i := range cell.Users {
			if int(cell.Users[i].ID) != i {
				t.Fatalf("cell %d user %d has local id %d (dense ids broken)", c, i, cell.Users[i].ID)
			}
		}
	}
}

func TestPartitionRemapsSubscribers(t *testing.T) {
	tr := partitionFixture(t)
	p, err := PartitionByCategory(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0's global subscribers are users 0 and 2, both home cell 0
	// with local ids 0 and 1. Channel 1's subscriber user 1 lives in cell
	// 1 as local id 0; user 2's channel-1 subscription lands in cell 0,
	// so cell 0's channel 1 lists local id 1 (user 2).
	c0 := p.Cells[0].Trace
	if got := c0.Channels[0].Subscribers; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("cell 0 channel 0 subscribers %v, want [0 1]", got)
	}
	if got := c0.Channels[1].Subscribers; len(got) != 1 || got[0] != 1 {
		t.Fatalf("cell 0 channel 1 subscribers %v, want [1] (user 2's local id)", got)
	}
	c1 := p.Cells[1].Trace
	if got := c1.Channels[1].Subscribers; len(got) != 1 || got[0] != 0 {
		t.Fatalf("cell 1 channel 1 subscribers %v, want [0] (user 1's local id)", got)
	}
	// The catalog is shared, not copied.
	if &c0.Videos[0] != &tr.Videos[0] {
		t.Fatal("cell trace copied the video catalog; it must share the parent slice")
	}
	// The parent's channels are untouched.
	if got := tr.Channels[0].Subscribers; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("parent channel 0 subscribers mutated: %v", got)
	}
}

func TestPartitionHomeOfVideo(t *testing.T) {
	tr := partitionFixture(t)
	p, err := PartitionByCategory(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Video v lives on channel v%3 whose primary category is v%3.
	for v := 0; v < 6; v++ {
		if got := p.HomeOfVideo(VideoID(v)); got != v%3 {
			t.Fatalf("video %d home %d, want %d", v, got, v%3)
		}
	}
	if got := p.HomeOfVideo(VideoID(99)); got != -1 {
		t.Fatalf("unknown video home %d, want -1", got)
	}
}

// TestPartitionCoversGeneratedTrace runs the partition over a generated
// trace and checks the global invariants: every user lands in exactly one
// cell, cell populations sum to the parent's, and every cell channel's
// subscriber ids are valid dense local ids.
func TestPartitionCoversGeneratedTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 500
	cfg.Channels = 40
	cfg.Seed = 11
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionByCategory(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != tr.Categories {
		t.Fatalf("%d cells for %d categories", len(p.Cells), tr.Categories)
	}
	total := 0
	for c := range p.Cells {
		cell := p.Cells[c].Trace
		total += len(cell.Users)
		if len(cell.Users) != len(p.Cells[c].Users) {
			t.Fatalf("cell %d trace has %d users but %d global ids", c, len(cell.Users), len(p.Cells[c].Users))
		}
		for i := range cell.Channels {
			for _, s := range cell.Channels[i].Subscribers {
				if int(s) < 0 || int(s) >= len(cell.Users) {
					t.Fatalf("cell %d channel %d subscriber %d out of local range [0,%d)", c, i, s, len(cell.Users))
				}
			}
		}
	}
	if total != len(tr.Users) {
		t.Fatalf("cells hold %d users, parent has %d", total, len(tr.Users))
	}
	for u := range tr.Users {
		c := p.Home[u]
		if c < 0 || c >= len(p.Cells) {
			t.Fatalf("user %d home %d out of range", u, c)
		}
	}
}

// referencePartition is the partition written the slow, obvious way: a
// user's home is the majority primary category of its subscriptions
// (smallest id on ties), else its first interest, else its id modulo the
// category count; each cell then filters every channel's subscriber list
// down to its own users on its own pass.
func referencePartition(t *Trace) *Partition {
	p := &Partition{parent: t, Cells: make([]CellTrace, t.Categories), Home: make([]int, len(t.Users))}
	for i := range t.Users {
		u := &t.Users[i]
		counts := make([]int, t.Categories)
		for _, ch := range u.Subscriptions {
			counts[t.Channels[ch].Primary]++
		}
		home, best := -1, 0
		for c, n := range counts {
			if n > best {
				home, best = c, n
			}
		}
		switch {
		case home >= 0:
		case len(u.Interests) > 0:
			home = int(u.Interests[0])
		default:
			home = int(u.ID) % t.Categories
		}
		p.Home[i] = home
	}
	local := make([]int, len(t.Users))
	for c := range p.Cells {
		p.Cells[c].Cell = c
		for i := range t.Users {
			if p.Home[i] == c {
				local[i] = len(p.Cells[c].Users)
				p.Cells[c].Users = append(p.Cells[c].Users, t.Users[i].ID)
			}
		}
	}
	for c := range p.Cells {
		cell := &Trace{
			Seed:       t.Seed,
			Categories: t.Categories,
			Channels:   make([]Channel, len(t.Channels)),
			Videos:     t.Videos,
			Users:      make([]User, len(p.Cells[c].Users)),
			Start:      t.Start,
			End:        t.End,
		}
		for i := range t.Channels {
			cell.Channels[i] = t.Channels[i]
			subs := []UserID{}
			for _, u := range t.Channels[i].Subscribers {
				if p.Home[u] == c {
					subs = append(subs, UserID(local[u]))
				}
			}
			cell.Channels[i].Subscribers = subs
		}
		for li, gid := range p.Cells[c].Users {
			cell.Users[li] = t.Users[gid]
			cell.Users[li].ID = UserID(li)
		}
		p.Cells[c].Trace = cell
	}
	return p
}

// TestPartitionMatchesReference checks PartitionByCategory against
// referencePartition on generated traces: the same homes, the same cell
// membership, and byte-identical cell traces. The 5-channel trace has
// more categories than primaries in use, so some cells are empty.
func TestPartitionMatchesReference(t *testing.T) {
	tiny := DefaultConfig()
	tiny.Channels = 5
	tiny.Users = 300
	for _, cfg := range []Config{smallConfig(5), DefaultConfig(), tiny} {
		tr := mustGenerate(t, cfg)
		got, err := PartitionByCategory(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := referencePartition(tr)
		if !slices.Equal(got.Home, want.Home) {
			t.Fatalf("%d channels, %d users: homes differ from the reference", cfg.Channels, cfg.Users)
		}
		if len(got.Cells) != len(want.Cells) {
			t.Fatalf("%d cells, reference has %d", len(got.Cells), len(want.Cells))
		}
		empty := 0
		for c := range want.Cells {
			if !slices.Equal(got.Cells[c].Users, want.Cells[c].Users) {
				t.Fatalf("%d channels, %d users: cell %d users differ from the reference", cfg.Channels, cfg.Users, c)
			}
			var gotBytes, wantBytes bytes.Buffer
			if err := got.Cells[c].Trace.SaveStream(&gotBytes); err != nil {
				t.Fatal(err)
			}
			if err := want.Cells[c].Trace.SaveStream(&wantBytes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
				t.Fatalf("%d channels, %d users: cell %d trace bytes differ from the reference", cfg.Channels, cfg.Users, c)
			}
			if len(want.Cells[c].Users) == 0 {
				empty++
			}
		}
		if cfg.Channels == tiny.Channels && empty == 0 {
			t.Fatalf("%d channels over %d categories left no cell empty", cfg.Channels, cfg.Categories)
		}
	}
}
