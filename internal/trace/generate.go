package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
)

// Config controls synthetic trace generation. The defaults reproduce the
// shape of the paper's crawl (Section III) at laptop scale; the benches grow
// a trace toward the paper's 10,000-node simulations by raising Users and
// Channels together.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Categories is the number of interest categories. YouTube has ~18;
	// the paper's PlanetLab runs use 6.
	Categories int
	// Channels is the number of channels to generate (paper sim: 545).
	Channels int
	// Users is the number of users (paper sim: 10,000).
	Users int
	// MaxVideosPerChannel caps the heavy per-channel tail (Fig. 6).
	MaxVideosPerChannel int
	// VideoCountMultiplier scales the per-channel video count draw
	// (0 or 1 = none). The paper's simulation uses 545 channels holding
	// 101,121 videos — a mean of ≈185/channel, far above the crawl-wide
	// Fig. 6 median of 9, because the simulated channels are the
	// video-rich popular ones. Paper-scale runs set this multiplier to
	// recover that catalog size.
	VideoCountMultiplier float64
	// ZipfExponent is the within-channel popularity exponent s (Fig. 9
	// measures s ≈ 1).
	ZipfExponent float64
	// MaxInterestsPerUser bounds user interests (Fig. 13: max ≈18).
	MaxInterestsPerUser int
	// MeanSubscriptionsPerUser sets the average number of channels a user
	// subscribes to.
	MeanSubscriptionsPerUser float64
	// InterestAlignedSubscriptionP is the probability a subscription is
	// drawn from the user's own interest categories (Fig. 12: median
	// similarity 1.0, i.e. most subscriptions align with interests).
	InterestAlignedSubscriptionP float64
	// MeanFavoritesPerUser sets how many favourites each user marks.
	MeanFavoritesPerUser float64
	// Span is the period the trace covers (Fig. 2 plots uploads over it).
	Span time.Duration
	// Start is the first upload date.
	Start time.Time
}

// DefaultConfig returns a laptop-scale configuration whose ratios follow the
// paper's simulation settings (Table I): 545 channels holding ~101k videos
// watched by 10k users is the full scale; the default shrinks users while
// keeping the distributions' shape.
func DefaultConfig() Config {
	return Config{
		Seed:                         1,
		Categories:                   18,
		Channels:                     545,
		Users:                        2000,
		MaxVideosPerChannel:          400,
		ZipfExponent:                 1.0,
		MaxInterestsPerUser:          18,
		MeanSubscriptionsPerUser:     6,
		InterestAlignedSubscriptionP: 0.85,
		MeanFavoritesPerUser:         8,
		Span:                         2 * 365 * 24 * time.Hour,
		Start:                        time.Date(2008, time.January, 18, 0, 0, 0, 0, time.UTC),
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Categories <= 0:
		return fmt.Errorf("%w: categories=%d", dist.ErrBadParameter, c.Categories)
	case c.Channels <= 0:
		return fmt.Errorf("%w: channels=%d", dist.ErrBadParameter, c.Channels)
	case c.Users <= 0:
		return fmt.Errorf("%w: users=%d", dist.ErrBadParameter, c.Users)
	case c.MaxVideosPerChannel < 2:
		return fmt.Errorf("%w: maxVideosPerChannel=%d", dist.ErrBadParameter, c.MaxVideosPerChannel)
	case c.ZipfExponent <= 0:
		return fmt.Errorf("%w: zipfExponent=%v", dist.ErrBadParameter, c.ZipfExponent)
	case c.MaxInterestsPerUser <= 0 || c.MaxInterestsPerUser > c.Categories:
		return fmt.Errorf("%w: maxInterestsPerUser=%d", dist.ErrBadParameter, c.MaxInterestsPerUser)
	case c.InterestAlignedSubscriptionP < 0 || c.InterestAlignedSubscriptionP > 1:
		return fmt.Errorf("%w: interestAlignedSubscriptionP=%v", dist.ErrBadParameter, c.InterestAlignedSubscriptionP)
	case c.Span <= 0:
		return fmt.Errorf("%w: span=%v", dist.ErrBadParameter, c.Span)
	case c.VideoCountMultiplier < 0:
		return fmt.Errorf("%w: videoCountMultiplier=%v", dist.ErrBadParameter, c.VideoCountMultiplier)
	}
	return nil
}

// generator holds the per-run state of a single Generate call so concurrent
// generations never share mutable state. It holds no per-user map: the
// per-user scratch below is indexed by category id and cleared after
// each user, and duplicate checks scan the user's own short lists.
type generator struct {
	cfg        Config
	g          *dist.RNG
	tr         *Trace
	catWeights dist.Cumulative
	chanPop    []float64         // per-channel popularity weight
	chanDraw   dist.Cumulative   // chanPop as a draw over all channels
	byCat      [][]ChannelID     // channels indexed by primary category
	catDraw    []dist.Cumulative // catDraw[c] draws an index into byCat[c] by chanPop
	zipfs      []zipfCache       // one per exponent in use
	catSeen    []bool            // sampleInterests' scratch, one per category
	catCount   []int             // deriveInterests' tally, one per category
	derived    []CategoryID      // deriveInterests' scratch list
}

// zipfCache holds the samplers built for one exponent, indexed by n.
type zipfCache struct {
	s   float64
	byN []*dist.Zipf
}

// zipfFor returns a cached Zipf sampler for (n, s). Constructing a
// sampler is O(n) and draws nothing from the RNG, so caching keeps the
// generation stream bit-identical while turning the per-favourite
// construction from quadratic to linear at paper scale (1M users drawing
// from channels holding hundreds of videos each). Only three exponents
// are ever asked for, so a linear scan finds the exponent's cache.
func (gen *generator) zipfFor(n int, s float64) (*dist.Zipf, error) {
	i := 0
	for i < len(gen.zipfs) && gen.zipfs[i].s != s {
		i++
	}
	if i == len(gen.zipfs) {
		gen.zipfs = append(gen.zipfs, zipfCache{s: s})
	}
	c := &gen.zipfs[i]
	if n >= 0 && n < len(c.byN) && c.byN[n] != nil {
		return c.byN[n], nil
	}
	z, err := dist.NewZipf(n, s)
	if err != nil {
		return nil, err
	}
	if n >= len(c.byN) {
		c.byN = append(c.byN, make([]*dist.Zipf, n+1-len(c.byN))...)
	}
	c.byN[n] = z
	return z, nil
}

// Generate builds a synthetic trace from the configuration. The same
// configuration always yields the same trace.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("trace config: %w", err)
	}
	gen := &generator{
		cfg: cfg,
		g:   dist.NewRNG(cfg.Seed),
		tr: &Trace{
			Seed:       cfg.Seed,
			Categories: cfg.Categories,
			Start:      cfg.Start,
			End:        cfg.Start.Add(cfg.Span),
		},
		catSeen:  make([]bool, cfg.Categories),
		catCount: make([]int, cfg.Categories),
	}
	gen.catWeights = categoryWeights(gen.g, cfg.Categories)
	if err := gen.channels(); err != nil {
		return nil, err
	}
	// Users (and their subscriptions) come before videos so channel view
	// counts can scale with real subscriber counts — the strong positive
	// correlation of Fig. 5.
	if err := gen.users(); err != nil {
		return nil, err
	}
	if err := gen.videos(); err != nil {
		return nil, err
	}
	for i := range gen.tr.Users {
		u := &gen.tr.Users[i]
		if err := gen.favorites(u); err != nil {
			return nil, err
		}
		gen.deriveInterests(u)
	}
	// Pack the per-object lists into shared arenas: from here on the
	// trace is read-only for every consumer.
	gen.tr.Compact()
	return gen.tr, nil
}

// deriveInterests replaces the user's latent preference list with the
// interests the paper actually measures: the categories of the user's
// favourite videos, most frequent first. Users without favourites keep
// their latent preferences.
func (gen *generator) deriveInterests(u *User) {
	if len(u.Favorites) == 0 {
		return
	}
	counts, derived := gen.catCount, gen.derived[:0]
	for _, vid := range u.Favorites {
		c := gen.tr.Videos[vid].Category
		if counts[c] == 0 {
			derived = append(derived, c)
		}
		counts[c]++
	}
	slices.SortFunc(derived, func(a, b CategoryID) int {
		if n := cmp.Compare(counts[b], counts[a]); n != 0 {
			return n
		}
		return cmp.Compare(a, b)
	})
	for _, c := range derived {
		counts[c] = 0
	}
	gen.derived = derived // keep the grown scratch for the next user
	u.Interests = slices.Clone(derived[:min(len(derived), gen.cfg.MaxInterestsPerUser)])
}

// categoryWeights gives each category a popularity weight so some categories
// (e.g. Music, Entertainment) attract more channels and users than others.
func categoryWeights(g *dist.RNG, n int) dist.Cumulative {
	var w dist.Cumulative
	for i := 0; i < n; i++ {
		w.Add(math.Exp(g.NormFloat64() * 0.8))
	}
	return w
}

func (gen *generator) channels() error {
	// Channel popularity weight: heavy-tailed so subscriber counts and
	// view counts span several orders of magnitude (Figs. 3, 4). The
	// tail index is calibrated so per-video views reproduce Fig. 7's
	// quantile ratios (p90/p50 ≈ 70) after the subscription coupling
	// roughly squares the skew.
	popDist, err := dist.NewBoundedPareto(1.3, 1, 2000)
	if err != nil {
		return err
	}
	cfg, g, tr := gen.cfg, gen.g, gen.tr
	tr.Channels = make([]Channel, 0, cfg.Channels)
	gen.chanPop = make([]float64, 0, cfg.Channels)
	gen.byCat = make([][]ChannelID, cfg.Categories)
	gen.catDraw = make([]dist.Cumulative, cfg.Categories)
	for i := 0; i < cfg.Channels; i++ {
		primary := CategoryID(gen.catWeights.Choice(g))
		// Channels focus on few categories (Fig. 11): 1 + Poisson(0.9)
		// extra categories, capped at 5.
		nCats := 1 + dist.Poisson(g, 0.9)
		if nCats > 5 {
			nCats = 5
		}
		if nCats > cfg.Categories {
			nCats = cfg.Categories
		}
		tr.Channels = append(tr.Channels, Channel{
			ID:         ChannelID(i),
			Primary:    primary,
			Categories: pickCategories(g, cfg.Categories, int(primary), nCats),
		})
		pop := popDist.Sample(g)
		gen.chanPop = append(gen.chanPop, pop)
		gen.byCat[primary] = append(gen.byCat[primary], ChannelID(i))
		gen.chanDraw.Add(pop)
		gen.catDraw[primary].Add(pop)
	}
	return nil
}

func pickCategories(g *dist.RNG, total, primary, n int) []CategoryID {
	cats := make([]CategoryID, 0, n)
	cats = append(cats, CategoryID(primary))
	for len(cats) < n {
		c := CategoryID(g.Intn(total))
		if slices.Contains(cats, c) {
			continue
		}
		cats = append(cats, c)
	}
	slices.Sort(cats)
	return cats
}

func (gen *generator) videos() error {
	cfg, g, tr := gen.cfg, gen.g, gen.tr
	lengthDist, err := dist.NewLogNormal(math.Log(240), 0.7) // ≈4 min median
	if err != nil {
		return err
	}
	// Videos per channel (Fig. 6): heavy-tailed, median around 9.
	// Calibrated to Fig. 6: median ≈9 videos per channel, top 10% above
	// ≈116, bounded by the configured maximum.
	countDist, err := dist.NewBoundedPareto(0.65, 3.1, float64(cfg.MaxVideosPerChannel))
	if err != nil {
		return err
	}
	spanSec := cfg.Span.Seconds()
	for ci := range tr.Channels {
		ch := &tr.Channels[ci]
		mult := cfg.VideoCountMultiplier
		if mult <= 0 {
			mult = 1
		}
		nVideos := int(countDist.Sample(g) * mult)
		if nVideos < 1 {
			nVideos = 1
		}
		zipf, err := gen.zipfFor(nVideos, cfg.ZipfExponent)
		if err != nil {
			return err
		}
		// Total channel views scale with the channel's subscriber count
		// (Fig. 5's strong positive correlation) plus a popularity
		// floor so unsubscribed channels still accrue some views.
		// Total views grow with the audience (subscribers, Fig. 5) and
		// sublinearly with catalog size: a channel's viewers
		// concentrate on its top-ranked videos, so doubling the
		// catalog does not double total views.
		nSubs := float64(len(ch.Subscribers))
		totalViews := (gen.chanPop[ci] + 40*nSubs*(0.75+0.5*g.Float64())) * math.Sqrt(float64(nVideos)) * 12
		ch.Videos = make([]VideoID, 0, nVideos)
		for r := 1; r <= nVideos; r++ {
			views := int64(totalViews * zipf.P(r))
			if views < 1 {
				views = 1
			}
			// Favourites correlate strongly with views (Fig. 8;
			// Chatzopoulou et al. report Pearson > 0.9).
			favRate := 0.002 + 0.003*g.Float64()
			favs := int64(float64(views) * favRate)
			// Upload dates grow superlinearly toward the end of
			// the span (Fig. 2): sqrt-transform of a uniform puts
			// more uploads late in the period.
			u := g.Float64()
			at := gen.cfg.Start.Add(time.Duration(math.Sqrt(u) * spanSec * float64(time.Second)))
			length := time.Duration(lengthDist.Sample(g) * float64(time.Second))
			if length < 10*time.Second {
				length = 10 * time.Second
			}
			if length > 30*time.Minute {
				length = 30 * time.Minute
			}
			id := VideoID(len(tr.Videos))
			tr.Videos = append(tr.Videos, Video{
				ID:        id,
				Channel:   ch.ID,
				Category:  videoCategory(g, ch),
				Views:     views,
				Favorites: favs,
				Uploaded:  at,
				Length:    length,
				Rank:      r,
			})
			ch.Videos = append(ch.Videos, id)
		}
	}
	return nil
}

func videoCategory(g *dist.RNG, ch *Channel) CategoryID {
	// Most videos belong to the channel's primary category; the rest are
	// spread over its secondary categories.
	if len(ch.Categories) == 1 || g.Bool(0.7) {
		return ch.Primary
	}
	return ch.Categories[g.Intn(len(ch.Categories))]
}

func (gen *generator) users() error {
	cfg, g, tr := gen.cfg, gen.g, gen.tr
	tr.Users = make([]User, 0, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		u := User{ID: UserID(i)}
		// Interests per user (Fig. 13): ~60% below 10, max ≈18.
		nInterests := 1 + dist.Poisson(g, 6.5)
		if nInterests > cfg.MaxInterestsPerUser {
			nInterests = cfg.MaxInterestsPerUser
		}
		u.Interests = gen.sampleInterests(nInterests)

		nSubs := 1 + dist.Poisson(g, cfg.MeanSubscriptionsPerUser-1)
		u.Subscriptions = make([]ChannelID, 0, nSubs)
		for s := 0; s < nSubs; s++ {
			ch, err := gen.pickSubscription(&u)
			if err != nil {
				return err
			}
			if ch < 0 || slices.Contains(u.Subscriptions, ch) {
				continue
			}
			u.Subscriptions = append(u.Subscriptions, ch)
			tr.Channels[ch].Subscribers = append(tr.Channels[ch].Subscribers, u.ID)
		}
		tr.Users = append(tr.Users, u)
	}
	return nil
}

// sampleInterests draws n distinct categories in preference order: the first
// entries are the user's dominant interests, which receive most of the
// user's subscriptions.
func (gen *generator) sampleInterests(n int) []CategoryID {
	seen := gen.catSeen
	out := make([]CategoryID, 0, n)
	for attempts := 0; len(out) < n && attempts < 20*n; attempts++ {
		c := gen.catWeights.Choice(gen.g)
		if c < 0 || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, CategoryID(c))
	}
	for _, c := range out {
		seen[c] = false
	}
	return out
}

// interestZipfS is the Zipf exponent concentrating subscriptions on the
// user's dominant interests (calibrated to Fig. 12's similarity median).
const interestZipfS = 2.2

func (gen *generator) pickSubscription(u *User) (ChannelID, error) {
	g := gen.g
	if len(u.Interests) > 0 && g.Bool(gen.cfg.InterestAlignedSubscriptionP) {
		// Subscriptions concentrate on the user's dominant interests:
		// a Zipf draw over the preference-ordered interest list. This
		// concentration is what produces the per-category channel
		// clusters of Fig. 10. A single-interest user draws from a
		// 1-element Zipf — always its one interest, but the draw is
		// still consumed so the stream does not depend on list length.
		z, err := gen.zipfFor(len(u.Interests), interestZipfS)
		if err != nil {
			// The interest list is non-empty and the exponent is a
			// positive constant, so this is a programming error —
			// surface it instead of silently mis-shaping Fig. 10.
			return -1, fmt.Errorf("interest zipf (%d interests): %w", len(u.Interests), err)
		}
		cat := u.Interests[z.Sample(g)-1]
		if chans := gen.byCat[cat]; len(chans) > 0 {
			return chans[gen.catDraw[cat].Choice(g)], nil
		}
		// Explicit fallback: no channel has this category as its
		// primary, so the aligned draw cannot be honored — fall
		// through to the global popularity-weighted draw.
	}
	// Popularity-weighted global draw: users sometimes subscribe
	// outside their interests (1-InterestAlignedSubscriptionP of draws).
	// Channel ids are dense, so the drawn index is the channel id.
	return ChannelID(gen.chanDraw.Choice(g)), nil
}

func (gen *generator) favorites(u *User) error {
	cfg, g, tr := gen.cfg, gen.g, gen.tr
	nFavs := dist.Poisson(g, cfg.MeanFavoritesPerUser)
	if nFavs == 0 || len(tr.Videos) == 0 {
		return nil
	}
	u.Favorites = make([]VideoID, 0, nFavs)
	for attempts := 0; len(u.Favorites) < nFavs && attempts < 20*nFavs; attempts++ {
		var vid VideoID
		// Favourites come mostly from subscribed channels (popular
		// ranks first), occasionally anywhere. The paper derives user
		// interests from favourite videos; generating favourites from
		// subscriptions keeps that relationship consistent.
		if len(u.Subscriptions) > 0 && g.Bool(0.8) {
			ch := &tr.Channels[u.Subscriptions[g.Intn(len(u.Subscriptions))]]
			if len(ch.Videos) == 0 {
				continue
			}
			z, err := gen.zipfFor(len(ch.Videos), 1)
			if err != nil {
				return fmt.Errorf("favourite zipf (%d videos): %w", len(ch.Videos), err)
			}
			vid = ch.Videos[z.Sample(g)-1]
		} else {
			vid = VideoID(g.Intn(len(tr.Videos)))
		}
		if slices.Contains(u.Favorites, vid) {
			continue
		}
		u.Favorites = append(u.Favorites, vid)
	}
	return nil
}
