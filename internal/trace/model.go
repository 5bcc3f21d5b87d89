// Package trace models the YouTube social network the paper measures in
// Section III — interest categories, channels, videos, users, subscriptions
// and favourites — and generates synthetic traces whose marginal
// distributions match the paper's crawl (O1–O5). It also computes the
// Section III statistics so every trace-analysis figure can be regenerated.
package trace

import (
	"time"
	"unsafe"
)

// CategoryID identifies an interest category (e.g. Gaming, Sports, Comedy).
type CategoryID int

// ChannelID identifies a channel (a user's page of uploaded videos).
type ChannelID int

// VideoID identifies a single video.
type VideoID int

// UserID identifies a registered user (a prospective peer).
type UserID int

// Video is one uploaded clip together with the metadata the paper's crawler
// collected: total views, upload date, length and favourite count.
type Video struct {
	ID       VideoID    `json:"id"`
	Channel  ChannelID  `json:"channel"`
	Category CategoryID `json:"category"`
	// Views is the total view count; within a channel the view counts of
	// its videos follow a Zipf distribution (Fig. 9).
	Views int64 `json:"views"`
	// Favorites is the number of times the video was marked as a
	// favourite; it correlates strongly with Views (Fig. 8).
	Favorites int64 `json:"favorites"`
	// Uploaded is the upload date (Fig. 2 plots uploads over time).
	Uploaded time.Time `json:"uploaded"`
	// Length is the playback duration. YouTube short videos average a
	// 320 kbps bitrate and a few minutes of content.
	Length time.Duration `json:"lengthNanos"`
	// Rank is the video's popularity rank within its channel (1 = most
	// popular). The prefetching algorithm orders a channel's videos by
	// this rank.
	Rank int `json:"rank"`
}

// Channel is a user's channel: a set of videos focused on a small number of
// interest categories (Fig. 11).
type Channel struct {
	ID ChannelID `json:"id"`
	// Primary is the channel's dominant interest category; YouTube lists
	// the channel under this category.
	Primary CategoryID `json:"primary"`
	// Categories are all categories the channel's videos span, Primary
	// included. Channels focus on few categories (median 1–3).
	Categories []CategoryID `json:"categories"`
	// Videos are the channel's uploads ordered by popularity rank.
	Videos []VideoID `json:"videos"`
	// Subscribers are the users subscribed to this channel.
	Subscribers []UserID `json:"subscribers"`
}

// User is a registered user with personal interests and channel
// subscriptions. Users tend to subscribe to channels matching their
// interests (Fig. 12) and have a bounded number of interests (Fig. 13).
type User struct {
	ID UserID `json:"id"`
	// Interests are the user's personal interest categories, derived in
	// the paper from the categories of the user's favourite videos.
	Interests []CategoryID `json:"interests"`
	// Subscriptions are the channels the user subscribes to.
	Subscriptions []ChannelID `json:"subscriptions"`
	// Favorites are videos the user marked as favourites.
	Favorites []VideoID `json:"favorites"`
}

// Trace is a complete synthetic crawl of the modelled social network.
//
// The layout is dense and index-addressed: objects live in value slices
// (id == index, enforced by Validate), and every per-object
// variable-length list is a view into a shared array: Generate and Crawl
// carve them from a few blocks, LoadStream packs them into four arenas.
// At paper scale (1M users) this removes millions of individual
// allocations and pointer targets, cutting both the heap footprint and
// GC scan time; the JSON encoding is unchanged.
type Trace struct {
	Seed       int64     `json:"seed"`
	Categories int       `json:"categories"`
	Channels   []Channel `json:"channels"`
	Videos     []Video   `json:"videos"`
	Users      []User    `json:"users"`
	// Start and End bound the upload dates in the trace.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Arenas backing a loaded trace's per-object lists. Unexported: they
	// are a storage detail, never serialized.
	catArena  []CategoryID
	vidArena  []VideoID
	userArena []UserID
	chanArena []ChannelID
}

// Channel returns the channel with the given id, or nil when out of range.
// The pointer aliases the trace's backing array: it stays valid as long
// as the trace itself, with no per-call allocation.
func (t *Trace) Channel(id ChannelID) *Channel {
	if int(id) < 0 || int(id) >= len(t.Channels) {
		return nil
	}
	return &t.Channels[id]
}

// Video returns the video with the given id, or nil when out of range.
func (t *Trace) Video(id VideoID) *Video {
	if int(id) < 0 || int(id) >= len(t.Videos) {
		return nil
	}
	return &t.Videos[id]
}

// User returns the user with the given id, or nil when out of range.
func (t *Trace) User(id UserID) *User {
	if int(id) < 0 || int(id) >= len(t.Users) {
		return nil
	}
	return &t.Users[id]
}

// ChannelViews returns the total views across a channel's videos.
func (t *Trace) ChannelViews(id ChannelID) int64 {
	ch := t.Channel(id)
	if ch == nil {
		return 0
	}
	var total int64
	for _, vid := range ch.Videos {
		total += t.Videos[vid].Views
	}
	return total
}

// fillSubscribers derives every channel's Subscribers from the users'
// Subscriptions in one counted pass: each list is a full-capacity view
// into one exact-size array, in user order, so no list grows by append.
func (t *Trace) fillSubscribers() {
	pos := make([]int, len(t.Channels)+1) // counts, then where channel c's next subscriber goes
	for i := range t.Users {
		for _, c := range t.Users[i].Subscriptions {
			pos[c+1]++
		}
	}
	for c := 1; c < len(pos); c++ {
		pos[c] += pos[c-1]
	}
	arena := make([]UserID, pos[len(t.Channels)])
	for i := range t.Users {
		for _, c := range t.Users[i].Subscriptions {
			arena[pos[c]] = t.Users[i].ID
			pos[c]++
		}
	}
	start := 0
	for c := range t.Channels {
		t.Channels[c].Subscribers = arena[start:pos[c]:pos[c]]
		start = pos[c]
	}
}

// slab hands out exact-size lists carved from shared blocks, so a built
// trace needs no second copy of its lists and its heap holds a few large
// objects instead of one per list. Each list is non-nil, so an empty one
// encodes as [] and not null, and has no spare capacity, so a stray
// append reallocates instead of bleeding into the next object's list.
type slab[T any] struct{ free []T }

func (s *slab[T]) take(n int) []T {
	if n > len(s.free) || s.free == nil {
		s.free = make([]T, max(n, 1<<12))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

func (s *slab[T]) clone(list []T) []T {
	out := s.take(len(list))
	copy(out, list)
	return out
}

// pack appends one list to LoadStream's arena and returns the
// full-capacity view.
func pack[T any](arena *[]T, list []T) []T {
	off := len(*arena)
	*arena = append(*arena, list...)
	return (*arena)[off:len(*arena):len(*arena)]
}

// Bytes returns the trace's in-memory footprint in bytes, computed from
// the layout itself (struct sizes plus every list element) rather than
// runtime heap sampling, so it is bit-identical across runs and
// platforms with the same word size. It is the numerator of the
// bytes-per-user figure the scale sweep reports.
func (t *Trace) Bytes() uint64 {
	const (
		idSize   = uint64(unsafe.Sizeof(CategoryID(0)))
		chSize   = uint64(unsafe.Sizeof(Channel{}))
		vidSize  = uint64(unsafe.Sizeof(Video{}))
		userSize = uint64(unsafe.Sizeof(User{}))
	)
	// len, not cap: the measure reflects content, not allocator growth
	// slack, so it matches across codecs and runs.
	b := uint64(unsafe.Sizeof(*t))
	b += uint64(len(t.Channels)) * chSize
	b += uint64(len(t.Videos)) * vidSize
	b += uint64(len(t.Users)) * userSize
	for i := range t.Channels {
		ch := &t.Channels[i]
		b += uint64(len(ch.Categories)+len(ch.Videos)+len(ch.Subscribers)) * idSize
	}
	for i := range t.Users {
		u := &t.Users[i]
		b += uint64(len(u.Interests)+len(u.Subscriptions)+len(u.Favorites)) * idSize
	}
	return b
}
