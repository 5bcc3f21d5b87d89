package trace

import "fmt"

// Partition splits a trace into per-interest-category community cells —
// the unit the sharded experiment engine runs one event loop per. The
// split is a pure function of the trace (no RNG, no shard count), so the
// cell layout and every cell's contents are identical no matter how many
// worker loops later execute them: that is what lets sharded runs produce
// byte-identical results across shard counts.
//
// Each cell holds the users whose home community is that category,
// renumbered to dense local ids (the experiment engine's node ids). The
// catalog is shared: the Videos slice is the parent's, and channels keep
// their global ids, with only their Subscribers lists rewritten to the
// cell's local user ids. A user's cross-category subscriptions therefore
// still resolve inside the cell — they are simply backed by the cell's
// own subscriber population.
type Partition struct {
	parent *Trace
	// Cells has one entry per category; Cells[c].Trace may hold zero
	// users when no one's home is category c.
	Cells []CellTrace
	// Home maps each global user id to its cell index.
	Home []int
}

// CellTrace is one community cell of a partition.
type CellTrace struct {
	// Cell is the cell index — the interest category id.
	Cell int
	// Trace holds the cell's users under dense local ids, over the shared
	// global catalog (channel and video ids are global).
	Trace *Trace
	// Users lists the cell's global user ids in ascending order; local id
	// i is global id Users[i].
	Users []UserID
}

// PartitionByCategory builds the per-category partition. A user's home
// cell is the majority primary category among its subscribed channels
// (ties break to the smallest category id); users with no subscriptions
// fall back to their first interest, and users with neither spread by
// id modulo the category count. Every rule reads only the user's own
// row, so home assignment is trivially parallel-safe and layout-free. No
// figure or CLI partitions a trace: it remains only for the sim-sharded
// workload of bench/, until that workload is retired.
func PartitionByCategory(t *Trace) (*Partition, error) {
	if t == nil || t.Categories <= 0 {
		return nil, fmt.Errorf("trace: partition needs a trace with categories")
	}
	cells := t.Categories
	p := &Partition{
		parent: t,
		Cells:  make([]CellTrace, cells),
		Home:   make([]int, len(t.Users)),
	}
	counts := make([]int, cells) // subscription tally, reused per user
	cellSize := make([]int, cells)
	for i := range t.Users {
		home := t.userHome(&t.Users[i], counts)
		p.Home[i] = home
		cellSize[home]++
	}
	// local[u] is u's dense id within its home cell.
	local := make([]int, len(t.Users))
	for c := range p.Cells {
		p.Cells[c] = CellTrace{Cell: c, Users: make([]UserID, 0, cellSize[c])}
	}
	for i := range t.Users {
		c := p.Home[i]
		local[i] = len(p.Cells[c].Users)
		p.Cells[c].Users = append(p.Cells[c].Users, t.Users[i].ID)
	}
	t.fillCells(p, local)
	return p, nil
}

// userHome computes one user's home cell; counts is a zeroed scratch
// tally of length Categories, left zeroed on return.
func (t *Trace) userHome(u *User, counts []int) int {
	best, bestN := -1, 0
	for _, chID := range u.Subscriptions {
		ch := t.Channel(chID)
		if ch == nil || int(ch.Primary) < 0 || int(ch.Primary) >= len(counts) {
			continue
		}
		c := int(ch.Primary)
		counts[c]++
		if counts[c] > bestN || (counts[c] == bestN && c < best) {
			best, bestN = c, counts[c]
		}
	}
	for _, chID := range u.Subscriptions {
		if ch := t.Channel(chID); ch != nil && int(ch.Primary) >= 0 && int(ch.Primary) < len(counts) {
			counts[ch.Primary] = 0
		}
	}
	if best >= 0 {
		return best
	}
	if len(u.Interests) > 0 && int(u.Interests[0]) >= 0 && int(u.Interests[0]) < len(counts) {
		return int(u.Interests[0])
	}
	return int(u.ID) % len(counts)
}

// fillCells materializes every cell in two passes over the subscriptions:
// one counts each cell's share to size its subscriber arena, one walks the
// channels in id order appending each subscriber's local id to its home
// cell's arena. A cell channel's Subscribers is the run its channel
// appended, so every list keeps the parent's order. Users are renumbered
// to local ids; everything else is a shared view of the parent.
func (t *Trace) fillCells(p *Partition, local []int) {
	nSubs := make([]int, len(p.Cells))
	for i := range t.Channels {
		for _, u := range t.Channels[i].Subscribers {
			nSubs[p.Home[u]]++
		}
	}
	arenas := make([][]UserID, len(p.Cells))
	for c := range p.Cells {
		arenas[c] = make([]UserID, 0, nSubs[c])
		p.Cells[c].Trace = &Trace{
			Seed:       t.Seed,
			Categories: t.Categories,
			Channels:   make([]Channel, len(t.Channels)),
			Videos:     t.Videos, // read-only shared catalog
			Users:      make([]User, len(p.Cells[c].Users)),
			Start:      t.Start,
			End:        t.End,
		}
	}
	off := make([]int, len(p.Cells)) // where the current channel's run starts
	for i := range t.Channels {
		src := &t.Channels[i]
		for c := range arenas {
			off[c] = len(arenas[c])
		}
		for _, u := range src.Subscribers {
			c := p.Home[u]
			arenas[c] = append(arenas[c], UserID(local[u]))
		}
		for c := range p.Cells {
			dst := &p.Cells[c].Trace.Channels[i]
			*dst = *src // Categories and Videos lists stay shared views
			end := len(arenas[c])
			dst.Subscribers = arenas[c][off[c]:end:end]
		}
	}
	for c := range p.Cells {
		cell := p.Cells[c].Trace
		for li, gid := range p.Cells[c].Users {
			u := t.Users[gid] // struct copy; the id lists stay shared views
			u.ID = UserID(li)
			cell.Users[li] = u
		}
	}
}

// HomeOfVideo returns the home cell of a video — the primary category of
// its channel — or -1 when the video is unknown. Cross-community lookups
// route to this cell's community server.
func (p *Partition) HomeOfVideo(v VideoID) int {
	video := p.parent.Video(v)
	if video == nil {
		return -1
	}
	ch := p.parent.Channel(video.Channel)
	if ch == nil || int(ch.Primary) < 0 || int(ch.Primary) >= len(p.Cells) {
		return -1
	}
	return int(ch.Primary)
}
