package vod

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/trace"
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = 11
	cfg.Channels = 80
	cfg.Users = 400
	cfg.Categories = 10
	cfg.MaxInterestsPerUser = 10
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestChunkBytes(t *testing.T) {
	tests := []struct {
		name    string
		length  time.Duration
		bitrate int64
		chunks  int
		want    int64
	}{
		{"four minutes two chunks", 4 * time.Minute, 320_000, 2, 4_800_000},
		{"zero length", 0, 320_000, 2, 0},
		{"zero chunks", time.Minute, 320_000, 0, 0},
		{"zero bitrate", time.Minute, 0, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ChunkBytes(tt.length, tt.bitrate, tt.chunks); got != tt.want {
				t.Errorf("ChunkBytes = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestCacheAddFullAndPrefix(t *testing.T) {
	c := NewCache(0)
	c.AddPrefix(1)
	if !c.HasPrefix(1) || c.HasFull(1) {
		t.Fatal("prefix should be present, full absent")
	}
	c.AddFull(1)
	if !c.HasFull(1) || !c.HasPrefix(1) {
		t.Fatal("full video should satisfy both")
	}
	if len(c.prefix) != 0 {
		t.Fatal("full video should supersede its prefix entry")
	}
	c.AddPrefix(1)
	if len(c.prefix) != 0 {
		t.Fatal("prefix after full should be a no-op")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3)
	for v := trace.VideoID(1); v <= 4; v++ {
		c.AddFull(v)
	}
	if c.HasFull(1) {
		t.Fatal("oldest video should be evicted")
	}
	for v := trace.VideoID(2); v <= 4; v++ {
		if !c.HasFull(v) {
			t.Fatalf("video %d should remain", v)
		}
	}
	if c.FullLen() != 3 {
		t.Fatalf("cache holds %d, want 3", c.FullLen())
	}
}

func TestCacheTouchRefreshesLRU(t *testing.T) {
	c := NewCache(2)
	c.AddFull(1)
	c.AddFull(2)
	c.AddFull(1) // touch 1, making 2 the oldest
	c.AddFull(3)
	if c.HasFull(2) {
		t.Fatal("video 2 should have been evicted after touch")
	}
	if !c.HasFull(1) || !c.HasFull(3) {
		t.Fatal("videos 1 and 3 should remain")
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCache(0)
	for v := trace.VideoID(0); v < 1000; v++ {
		c.AddFull(v)
	}
	if c.FullLen() != 1000 {
		t.Fatalf("unbounded cache holds %d, want 1000", c.FullLen())
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCache(0)
	c.AddFull(1)
	c.AddPrefix(2)
	c.Clear()
	if c.FullLen() != 0 || len(c.prefix) != 0 || c.HasPrefix(2) {
		t.Fatal("clear left residue")
	}
}

func TestCacheFullVideosCopy(t *testing.T) {
	c := NewCache(0)
	c.AddFull(1)
	c.AddFull(2)
	vids := c.FullVideos()
	vids[0] = 99
	if !c.HasFull(1) {
		t.Fatal("mutating the returned slice affected the cache")
	}
}

// Property: the cache never exceeds its bound, and cached videos are always
// reported present.
func TestCacheBoundProperty(t *testing.T) {
	f := func(ops []uint8, boundRaw uint8) bool {
		bound := int(boundRaw%10) + 1
		c := NewCache(bound)
		for _, op := range ops {
			v := trace.VideoID(op % 32)
			if op%2 == 0 {
				c.AddFull(v)
				if !c.HasFull(v) {
					return false
				}
			} else {
				c.AddPrefix(v)
				if !c.HasPrefix(v) {
					return false
				}
			}
			if c.FullLen() > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPickPrefetch pins the shared top-M pick in both call patterns: the
// simulator passes the channel's top M and skips what the cache holds a
// prefix of; the emulator passes the tracker's top M+1 and skips only the
// video just watched.
func TestPickPrefetch(t *testing.T) {
	held := NewCache(0)
	held.AddPrefix(11)
	watched := trace.VideoID(11)
	for _, tc := range []struct {
		name string
		list []trace.VideoID
		skip func(trace.VideoID) bool
		want []trace.VideoID
	}{
		{"simulator: top 3, one prefix held", []trace.VideoID{10, 11, 12}, held.HasPrefix, []trace.VideoID{10, 12}},
		{"emulator: top 4 holding the watched video", []trace.VideoID{10, 11, 12, 13}, func(v trace.VideoID) bool { return v == watched }, []trace.VideoID{10, 12, 13}},
		{"emulator: watched video outside the top 3", []trace.VideoID{10, 12, 13, 14}, func(v trace.VideoID) bool { return v == watched }, []trace.VideoID{10, 12, 13}},
		{"short list", []trace.VideoID{10}, held.HasPrefix, []trace.VideoID{10}},
	} {
		out := []trace.VideoID{99} // appended to, not overwritten
		got := PickPrefetch(out, tc.list, 3, tc.skip)
		if !slices.Equal(got, append([]trace.VideoID{99}, tc.want...)) {
			t.Errorf("%s: got %v, want 99 then %v", tc.name, got, tc.want)
		}
	}
}

func TestBehaviorValidate(t *testing.T) {
	if err := DefaultBehavior().Validate(); err != nil {
		t.Fatalf("default behaviour invalid: %v", err)
	}
	bad := []Behavior{
		{PSameChannel: -0.1},
		{PSameCategory: -0.1},
		{PSameChannel: 0.8, PSameCategory: 0.3},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("behaviour %+v should be invalid", b)
		}
	}
}

func TestNewPickerRejectsEmptyTrace(t *testing.T) {
	if _, err := NewPicker(nil, DefaultBehavior()); err == nil {
		t.Fatal("expected error for nil trace")
	}
	if _, err := NewPicker(&trace.Trace{}, DefaultBehavior()); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestPickerFirstPrefersSubscriptions(t *testing.T) {
	tr := testTrace(t)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(1)
	var u *trace.User
	for i := range tr.Users {
		if len(tr.Users[i].Subscriptions) > 0 {
			u = &tr.Users[i]
			break
		}
	}
	if u == nil {
		t.Skip("no subscribed user in trace")
	}
	subbed := make(map[trace.ChannelID]bool)
	for _, c := range u.Subscriptions {
		subbed[c] = true
	}
	hits := 0
	const n = 200
	for i := 0; i < n; i++ {
		vid := p.First(g, u)
		if subbed[tr.Video(vid).Channel] {
			hits++
		}
	}
	if hits < n*9/10 {
		t.Errorf("first video from subscriptions %d/%d, want nearly all", hits, n)
	}
}

func TestPickerNextFollows751510(t *testing.T) {
	tr := testTrace(t)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(2)
	// Find a current video in a channel with several videos.
	var cur *trace.Video
	for i := range tr.Videos {
		if len(tr.Channel(tr.Videos[i].Channel).Videos) >= 10 {
			cur = &tr.Videos[i]
			break
		}
	}
	if cur == nil {
		t.Skip("no big channel")
	}
	const n = 5000
	sameChannel, sameCategory, other := 0, 0, 0
	for i := 0; i < n; i++ {
		nxt := tr.Video(p.Next(g, cur.ID))
		switch {
		case nxt.Channel == cur.Channel:
			sameChannel++
		case nxt.Category == cur.Category:
			sameCategory++
		default:
			other++
		}
	}
	fc := float64(sameChannel) / n
	if fc < 0.70 || fc > 0.82 {
		t.Errorf("same-channel fraction %v, want ≈0.75", fc)
	}
	// Category picks can land back in the same channel occasionally, so the
	// bands are loose.
	if float64(other)/n > 0.15 {
		t.Errorf("other-category fraction %v, want ≈0.10", float64(other)/n)
	}
}

func TestPickerNextUnknownVideoFallsBack(t *testing.T) {
	tr := testTrace(t)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(3)
	vid := p.Next(g, trace.VideoID(1<<30))
	if tr.Video(vid) == nil {
		t.Fatal("fallback pick not in trace")
	}
}

func TestPlanSession(t *testing.T) {
	tr := testTrace(t)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(4)
	u := &tr.Users[0]
	plan := p.PlanSession(g, u, 10, 500*time.Second)
	if len(plan.Videos) != 10 {
		t.Fatalf("session has %d videos, want 10", len(plan.Videos))
	}
	for _, vid := range plan.Videos {
		if tr.Video(vid) == nil {
			t.Fatalf("session video %d not in trace", vid)
		}
	}
	if plan.OffTime < 0 {
		t.Fatalf("negative off time %v", plan.OffTime)
	}
}

func TestPlanSessionZeroVideos(t *testing.T) {
	tr := testTrace(t)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(5)
	plan := p.PlanSession(g, &tr.Users[0], 0, time.Second)
	if len(plan.Videos) != 0 {
		t.Fatalf("zero-video session has %d videos", len(plan.Videos))
	}
}

func TestSessionOffTimesExponential(t *testing.T) {
	tr := testTrace(t)
	p, err := NewPicker(tr, DefaultBehavior())
	if err != nil {
		t.Fatal(err)
	}
	g := dist.NewRNG(6)
	const n = 2000
	var sum time.Duration
	for i := 0; i < n; i++ {
		plan := p.PlanSession(g, &tr.Users[i%len(tr.Users)], 1, 500*time.Second)
		sum += plan.OffTime
	}
	mean := sum / n
	if mean < 400*time.Second || mean > 600*time.Second {
		t.Errorf("mean off time %v, want ≈500s", mean)
	}
}
