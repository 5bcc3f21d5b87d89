package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Channels = 60
	cfg.Users = 300
	cfg.Categories = 8
	cfg.MaxInterestsPerUser = 8
	cfg.MaxVideosPerChannel = 100
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *Trace {
	t.Helper()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero categories", func(c *Config) { c.Categories = 0 }},
		{"zero channels", func(c *Config) { c.Channels = 0 }},
		{"zero users", func(c *Config) { c.Users = 0 }},
		{"tiny max videos", func(c *Config) { c.MaxVideosPerChannel = 1 }},
		{"zero zipf", func(c *Config) { c.ZipfExponent = 0 }},
		{"zero interests", func(c *Config) { c.MaxInterestsPerUser = 0 }},
		{"interests above categories", func(c *Config) { c.MaxInterestsPerUser = c.Categories + 1 }},
		{"negative align p", func(c *Config) { c.InterestAlignedSubscriptionP = -0.1 }},
		{"align p above one", func(c *Config) { c.InterestAlignedSubscriptionP = 1.1 }},
		{"zero span", func(c *Config) { c.Span = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error, got nil")
			}
			if _, err := Generate(cfg); err == nil {
				t.Fatal("Generate accepted invalid config")
			}
		})
	}
}

func TestDefaultConfigIsValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestGenerateProducesRequestedCounts(t *testing.T) {
	cfg := smallConfig(1)
	tr := mustGenerate(t, cfg)
	if got := len(tr.Channels); got != cfg.Channels {
		t.Errorf("channels = %d, want %d", got, cfg.Channels)
	}
	if got := len(tr.Users); got != cfg.Users {
		t.Errorf("users = %d, want %d", got, cfg.Users)
	}
	if len(tr.Videos) == 0 {
		t.Error("no videos generated")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig(7))
	b := mustGenerate(t, smallConfig(7))
	if len(a.Videos) != len(b.Videos) {
		t.Fatalf("video counts differ: %d vs %d", len(a.Videos), len(b.Videos))
	}
	for i := range a.Videos {
		if a.Videos[i].Views != b.Videos[i].Views || a.Videos[i].Uploaded != b.Videos[i].Uploaded {
			t.Fatalf("video %d differs between same-seed runs", i)
		}
	}
	for i := range a.Users {
		if len(a.Users[i].Subscriptions) != len(b.Users[i].Subscriptions) {
			t.Fatalf("user %d subscriptions differ", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := mustGenerate(t, smallConfig(1))
	b := mustGenerate(t, smallConfig(2))
	if len(a.Videos) == len(b.Videos) {
		same := true
		for i := range a.Videos {
			if a.Videos[i].Views != b.Videos[i].Views {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGeneratedTraceValidates(t *testing.T) {
	tr := mustGenerate(t, smallConfig(3))
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace fails validation: %v", err)
	}
}

// TestVideoTotalsConserved: the union of per-channel video lists is exactly
// the global video list.
func TestVideoTotalsConserved(t *testing.T) {
	tr := mustGenerate(t, smallConfig(4))
	total := 0
	seen := make(map[VideoID]bool)
	for _, ch := range tr.Channels {
		total += len(ch.Videos)
		for _, vid := range ch.Videos {
			if seen[vid] {
				t.Fatalf("video %d listed in two channels", vid)
			}
			seen[vid] = true
		}
	}
	if total != len(tr.Videos) {
		t.Errorf("sum of channel videos = %d, want %d", total, len(tr.Videos))
	}
}

// TestWithinChannelZipfRanks: within each channel, views are non-increasing
// in rank (rank 1 most popular), matching Fig. 9.
func TestWithinChannelZipfRanks(t *testing.T) {
	tr := mustGenerate(t, smallConfig(5))
	for _, ch := range tr.Channels {
		var prev int64 = 1<<62 - 1
		for _, vid := range ch.Videos {
			v := tr.Videos[vid]
			if v.Views > prev {
				t.Fatalf("channel %d: views increase with rank (%d > %d)", ch.ID, v.Views, prev)
			}
			prev = v.Views
		}
	}
}

// TestSubscriptionsSymmetric: channel.Subscribers and user.Subscriptions are
// mutually consistent.
func TestSubscriptionsSymmetric(t *testing.T) {
	tr := mustGenerate(t, smallConfig(6))
	subs := make(map[ChannelID]map[UserID]bool)
	for _, ch := range tr.Channels {
		m := make(map[UserID]bool, len(ch.Subscribers))
		for _, u := range ch.Subscribers {
			m[u] = true
		}
		subs[ch.ID] = m
	}
	for _, u := range tr.Users {
		for _, cid := range u.Subscriptions {
			if !subs[cid][u.ID] {
				t.Fatalf("user %d subscribes to channel %d but is not in its subscriber list", u.ID, cid)
			}
		}
	}
	// Reverse direction: every subscriber appears in the user's list.
	userSubs := make(map[UserID]map[ChannelID]bool)
	for _, u := range tr.Users {
		m := make(map[ChannelID]bool, len(u.Subscriptions))
		for _, c := range u.Subscriptions {
			m[c] = true
		}
		userSubs[u.ID] = m
	}
	for _, ch := range tr.Channels {
		for _, uid := range ch.Subscribers {
			if !userSubs[uid][ch.ID] {
				t.Fatalf("channel %d lists subscriber %d who does not subscribe", ch.ID, uid)
			}
		}
	}
}

func TestInterestsBounded(t *testing.T) {
	cfg := smallConfig(8)
	tr := mustGenerate(t, cfg)
	for _, u := range tr.Users {
		if len(u.Interests) == 0 {
			t.Fatalf("user %d has no interests", u.ID)
		}
		if len(u.Interests) > cfg.MaxInterestsPerUser {
			t.Fatalf("user %d has %d interests, cap %d", u.ID, len(u.Interests), cfg.MaxInterestsPerUser)
		}
		seen := make(map[CategoryID]bool)
		for _, c := range u.Interests {
			if seen[c] {
				t.Fatalf("user %d has duplicate interest %d", u.ID, c)
			}
			seen[c] = true
		}
	}
}

func TestChannelCategoriesIncludePrimary(t *testing.T) {
	tr := mustGenerate(t, smallConfig(9))
	for _, ch := range tr.Channels {
		found := false
		for _, c := range ch.Categories {
			if c == ch.Primary {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("channel %d categories %v missing primary %d", ch.ID, ch.Categories, ch.Primary)
		}
		if len(ch.Categories) > 5 {
			t.Fatalf("channel %d spans %d categories, cap 5", ch.ID, len(ch.Categories))
		}
	}
}

func TestUploadDatesWithinSpan(t *testing.T) {
	cfg := smallConfig(10)
	tr := mustGenerate(t, cfg)
	for _, v := range tr.Videos {
		if v.Uploaded.Before(tr.Start) || v.Uploaded.After(tr.End) {
			t.Fatalf("video %d uploaded %v outside [%v, %v]", v.ID, v.Uploaded, tr.Start, tr.End)
		}
	}
}

func TestVideoLengthsShortForm(t *testing.T) {
	tr := mustGenerate(t, smallConfig(11))
	for _, v := range tr.Videos {
		if v.Length < 10*time.Second || v.Length > 30*time.Minute {
			t.Fatalf("video %d length %v outside short-video bounds", v.ID, v.Length)
		}
	}
}

// Property: any valid random configuration yields a trace that passes
// Validate and conserves totals.
func TestGeneratePropertyValidTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("property test with repeated generation")
	}
	f := func(seed int64, chRaw, userRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Channels = 5 + int(chRaw%40)
		cfg.Users = 20 + int(userRaw)
		cfg.Categories = 6
		cfg.MaxInterestsPerUser = 6
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		n := 0
		for _, ch := range tr.Channels {
			n += len(ch.Videos)
		}
		return n == len(tr.Videos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestVideoCountMultiplier(t *testing.T) {
	base := smallConfig(15)
	tr1, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.VideoCountMultiplier = 4
	scaled.MaxVideosPerChannel = base.MaxVideosPerChannel * 4
	tr4, err := Generate(scaled)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(tr4.Videos)) / float64(len(tr1.Videos))
	if ratio < 2.5 || ratio > 12 {
		t.Fatalf("multiplier 4 scaled videos by %.2f (from %d to %d)", ratio, len(tr1.Videos), len(tr4.Videos))
	}
	if err := tr4.Validate(); err != nil {
		t.Fatalf("scaled trace invalid: %v", err)
	}
}

func TestVideoCountMultiplierRejectsNegative(t *testing.T) {
	cfg := smallConfig(16)
	cfg.VideoCountMultiplier = -1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("negative multiplier accepted")
	}
}

// TestInterestsDerivedFromFavorites mirrors the paper's methodology: a
// user's interests are the categories of its favourite videos.
func TestInterestsDerivedFromFavorites(t *testing.T) {
	tr := mustGenerate(t, smallConfig(17))
	checked := 0
	for _, u := range tr.Users {
		if len(u.Favorites) == 0 {
			continue
		}
		favCats := make(map[CategoryID]bool)
		for _, vid := range u.Favorites {
			favCats[tr.Videos[vid].Category] = true
		}
		for _, c := range u.Interests {
			if !favCats[c] {
				t.Fatalf("user %d interest %d not among favourite categories", u.ID, c)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no users with favourites")
	}
}

// TestGenerateGoldenBytes pins the generator's output byte-for-byte: the
// sha-256 of SaveStream for the default configuration at three population
// sizes, taken before the subscription draws stopped building a weight
// slice per draw, plus two shapes the default rows miss, taken before the
// generator dropped its per-user maps: sim-closed's population (the
// 4.4x catalog, whose channels reach the large-n Zipf samplers) and a
// 6-category trace with the interest cap clamped to the category count.
// Any change to the RNG stream or the draw arithmetic moves every figure
// and must show up here first.
func TestGenerateGoldenBytes(t *testing.T) {
	scaled := func(c *Config) {
		c.Users = 10_000
		c.VideoCountMultiplier = 4.4
		// figures.Scale.BuildTrace scales the per-channel cap with
		// the catalog.
		c.MaxVideosPerChannel = int(float64(c.MaxVideosPerChannel) * 4.4)
	}
	sixCategories := func(c *Config) {
		c.Categories = 6
		c.MaxInterestsPerUser = 6
	}
	golden := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"2k users", func(c *Config) { c.Users = 2_000 }, "3cf5fced5c38c126b80fd9fc2707b577bc5cfe343c3e96a9ef5ea34ccd8adf10"},
		{"10k users", func(c *Config) { c.Users = 10_000 }, "231261a462196b53d330e0c3afb82d82d1582bf9a5b7e7a98137327436b6c1ed"},
		{"100k users", func(c *Config) { c.Users = 100_000 }, "41f68ee7ce16ed1508db1b26acf150f7900914a53f0164098b3a90deb0e608be"},
		{"sim-closed population", scaled, "483952f8bcfb307b14c182c72fe9cec3213c1020927f3b4e7b9c412c333eca4c"},
		{"6 categories", sixCategories, "46d088d798bb7ee539a9641bb4795a27d1cc5a800653d5c7eca0a139a7094e66"},
	}
	for _, row := range golden {
		cfg := DefaultConfig()
		row.mutate(&cfg)
		if cfg.Users > 10_000 && testing.Short() {
			continue
		}
		h := sha256.New()
		if err := mustGenerate(t, cfg).SaveStream(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != row.want {
			t.Errorf("%s: SaveStream sha-256 %s, want %s", row.name, got, row.want)
		}
	}
}

// BenchmarkGenerate measures generating the default 2 000-user trace;
// scripts/ci.sh prints its ns/op and B/op.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
