package trace

import (
	"fmt"

	"github.com/socialtube/socialtube/internal/dist"
)

// Crawl reproduces the paper's Section III data-collection methodology on a
// synthetic network: starting from a random user, perform a breadth-first
// search over subscription relationships (user → subscribed channels →
// their subscribers), collecting users, channels and videos until maxUsers
// users have been crawled or the queue empties. The paper notes (citing
// Mislove et al.) that truncated BFS sampling overestimates node degree but
// preserves other metrics; Crawl exists so that exact claim can be tested
// against ground truth here.
//
// The returned trace is self-contained: ids are re-numbered densely and all
// references (subscriptions, favourites, subscriber lists) are restricted
// to crawled entities.
func Crawl(tr *Trace, seed int64, maxUsers int) (*Trace, error) {
	if tr == nil || len(tr.Users) == 0 {
		return nil, fmt.Errorf("%w: crawl needs a non-empty trace", dist.ErrBadParameter)
	}
	if maxUsers <= 0 {
		return nil, fmt.Errorf("%w: maxUsers=%d", dist.ErrBadParameter, maxUsers)
	}
	g := dist.NewRNG(seed)

	visited := make(map[UserID]bool)
	queue := []UserID{tr.Users[g.Intn(len(tr.Users))].ID}
	visited[queue[0]] = true
	var crawled []UserID
	chanSeen := make(map[ChannelID]bool)

	for len(queue) > 0 && len(crawled) < maxUsers {
		uid := queue[0]
		queue = queue[1:]
		crawled = append(crawled, uid)
		u := tr.User(uid)
		for _, cid := range u.Subscriptions {
			chanSeen[cid] = true
			for _, sub := range tr.Channel(cid).Subscribers {
				if !visited[sub] {
					visited[sub] = true
					queue = append(queue, sub)
				}
			}
		}
	}

	return subTrace(tr, crawled, chanSeen)
}

// subTrace builds a dense, self-consistent trace restricted to the given
// users and channels. The catalog is sized exactly before it is filled,
// and every list is carved from shared blocks at its final size.
func subTrace(tr *Trace, users []UserID, chans map[ChannelID]bool) (*Trace, error) {
	userIdx := make(map[UserID]UserID, len(users))
	for i, uid := range users {
		userIdx[uid] = UserID(i)
	}
	nVideos := 0
	for cid := range chans {
		nVideos += len(tr.Channel(cid).Videos)
	}
	out := &Trace{
		Seed:       tr.Seed,
		Categories: tr.Categories,
		Channels:   make([]Channel, 0, len(chans)),
		Videos:     make([]Video, 0, nVideos),
		Users:      make([]User, 0, len(users)),
		Start:      tr.Start,
		End:        tr.End,
	}
	// Channels, and each one's videos, in ascending old-id order for
	// determinism.
	chanIdx := make(map[ChannelID]ChannelID, len(chans))
	videoIdx := make(map[VideoID]VideoID, nVideos)
	var cats slab[CategoryID]
	var vids slab[VideoID]
	var chanLists slab[ChannelID]
	for i := range tr.Channels {
		ch := &tr.Channels[i]
		if !chans[ch.ID] {
			continue
		}
		nc := Channel{
			ID:         ChannelID(len(out.Channels)),
			Primary:    ch.Primary,
			Categories: cats.clone(ch.Categories),
			Videos:     vids.take(len(ch.Videos)),
		}
		chanIdx[ch.ID] = nc.ID
		for r, vid := range ch.Videos {
			v := *tr.Video(vid)
			v.ID, v.Channel = VideoID(len(out.Videos)), nc.ID
			out.Videos = append(out.Videos, v)
			videoIdx[vid] = v.ID
			nc.Videos[r] = v.ID
		}
		out.Channels = append(out.Channels, nc)
	}
	var subs []ChannelID
	var favs []VideoID
	for _, uid := range users {
		u := tr.User(uid)
		subs, favs = subs[:0], favs[:0]
		for _, cid := range u.Subscriptions {
			if nc, ok := chanIdx[cid]; ok {
				subs = append(subs, nc)
			}
		}
		for _, vid := range u.Favorites {
			if nv, ok := videoIdx[vid]; ok {
				favs = append(favs, nv)
			}
		}
		out.Users = append(out.Users, User{
			ID:            userIdx[uid],
			Interests:     cats.clone(u.Interests),
			Subscriptions: chanLists.clone(subs),
			Favorites:     vids.clone(favs),
		})
	}
	out.fillSubscribers()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("crawl produced inconsistent trace: %w", err)
	}
	return out, nil
}

// MeanDegree returns the average number of subscriptions per user — the
// degree metric BFS sampling is known to overestimate.
func (t *Trace) MeanDegree() float64 {
	if len(t.Users) == 0 {
		return 0
	}
	total := 0
	for _, u := range t.Users {
		total += len(u.Subscriptions)
	}
	return float64(total) / float64(len(t.Users))
}
