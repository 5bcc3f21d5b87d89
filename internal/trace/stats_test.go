package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

func statsTrace(t *testing.T) *Trace {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Channels = 200
	cfg.Users = 1200
	return mustGenerate(t, cfg)
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestCDFEmpty(t *testing.T) {
	if got := CDF(nil, []float64{0.5}); got != nil {
		t.Errorf("CDF(nil) = %v, want nil", got)
	}
}

func TestCDFIsMonotone(t *testing.T) {
	values := []float64{5, 1, 9, 3, 7, 2, 8}
	fracs := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	pts := CDF(values, fracs)
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Fatalf("CDF not monotone at %d: %v < %v", i, pts[i].Value, pts[i-1].Value)
		}
	}
}

// TestFig2VideoGrowthIsIncreasing: cumulative uploads grow over time and
// accelerate (second half adds more than the first half), matching Fig. 2.
func TestFig2VideoGrowthIsIncreasing(t *testing.T) {
	tr := statsTrace(t)
	growth := tr.VideoGrowth(10)
	if len(growth) != 10 {
		t.Fatalf("buckets = %d, want 10", len(growth))
	}
	for i := 1; i < len(growth); i++ {
		if growth[i] < growth[i-1] {
			t.Fatalf("cumulative growth decreased at bucket %d", i)
		}
	}
	if growth[9] != len(tr.Videos) {
		t.Errorf("final cumulative count %d, want %d", growth[9], len(tr.Videos))
	}
	firstHalf := growth[4]
	secondHalf := growth[9] - growth[4]
	if secondHalf <= firstHalf {
		t.Errorf("upload rate did not accelerate: first half %d, second half %d", firstHalf, secondHalf)
	}
}

func TestVideoGrowthDegenerate(t *testing.T) {
	tr := &Trace{}
	if got := tr.VideoGrowth(0); got != nil {
		t.Errorf("VideoGrowth(0) = %v, want nil", got)
	}
}

// TestFig3ChannelViewFrequencySpread: per-channel view frequency spans
// multiple orders of magnitude.
func TestFig3ChannelViewFrequencySpread(t *testing.T) {
	tr := statsTrace(t)
	freqs := tr.ChannelViewFrequencies()
	if len(freqs) == 0 {
		t.Fatal("no view frequencies")
	}
	sort.Float64s(freqs)
	// The paper's crawl (2M users) spans five orders of magnitude; a
	// thousand-user synthetic trace compresses that, but popularity must
	// still vary by more than an order of magnitude.
	lo, hi := Quantile(freqs, 0.2), Quantile(freqs, 0.99)
	if hi < lo*20 {
		t.Errorf("view frequency spread too narrow: p20=%v p99=%v", lo, hi)
	}
}

// TestFig4SubscriberHeavyTail: top quartile channels have far more
// subscribers than the bottom quartile.
func TestFig4SubscriberHeavyTail(t *testing.T) {
	tr := statsTrace(t)
	subs := tr.SubscriberCounts()
	sort.Float64s(subs)
	p25, p75 := Quantile(subs, 0.25), Quantile(subs, 0.75)
	if p75 < p25*2+2 {
		t.Errorf("subscriber distribution not heavy-tailed: p25=%v p75=%v", p25, p75)
	}
}

// TestFig5ViewsSubscriptionsCorrelated: strong positive correlation, the
// paper's key O2 observation.
func TestFig5ViewsSubscriptionsCorrelated(t *testing.T) {
	tr := statsTrace(t)
	subs, views := tr.ViewsVsSubscriptions()
	// Fig. 5 is a log-log scatter; the correlation lives in log space.
	if r := LogPearson(subs, views); r < 0.5 {
		t.Errorf("views/subscriptions log-Pearson = %v, want strongly positive", r)
	}
	if r := Pearson(subs, views); r <= 0 {
		t.Errorf("raw Pearson = %v, want positive", r)
	}
}

// TestFig9WithinChannelZipf: the most popular channel's view counts fit a
// Zipf distribution with s near 1.
func TestFig9WithinChannelZipf(t *testing.T) {
	tr := statsTrace(t)
	ch := tr.ChannelPopularityClass(1.0)
	if ch == nil {
		t.Fatal("no channel")
	}
	views := tr.WithinChannelViews(ch.ID)
	if len(views) < 5 {
		// Popularity class may select a small channel; pick a big one.
		for _, c := range tr.Channels {
			if len(c.Videos) >= 20 {
				views = tr.WithinChannelViews(c.ID)
				break
			}
		}
	}
	if len(views) < 5 {
		t.Skip("no channel large enough for a Zipf fit")
	}
	s, r2 := ZipfFit(views)
	if s < 0.5 || s > 2 {
		t.Errorf("Zipf exponent %v outside plausible range around 1", s)
	}
	if r2 < 0.8 {
		t.Errorf("Zipf fit R² = %v, want good fit", r2)
	}
}

func TestZipfFitDegenerate(t *testing.T) {
	if s, r2 := ZipfFit(nil); s != 0 || r2 != 0 {
		t.Errorf("ZipfFit(nil) = %v, %v", s, r2)
	}
	if s, r2 := ZipfFit([]float64{5}); s != 0 || r2 != 0 {
		t.Errorf("ZipfFit(single) = %v, %v", s, r2)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 2}, []float64{1}); got != 0 {
		t.Errorf("mismatched lengths: %v", got)
	}
	if got := Pearson([]float64{1, 1}, []float64{2, 3}); got != 0 {
		t.Errorf("zero variance: %v", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect correlation: %v", got)
	}
}

// TestFig10ChannelsClusterByCategory: shared-subscriber edges connect
// same-category channels far more often than chance.
func TestFig10ChannelsClusterByCategory(t *testing.T) {
	tr := statsTrace(t)
	// Threshold scaled down from the paper's 50 because our default trace
	// has fewer users.
	const minShared = 3
	edges := tr.SharedSubscriberGraph(minShared)
	if len(edges) == 0 {
		t.Skip("no shared-subscriber edges at this scale")
	}
	frac := tr.IntraCategoryEdgeFraction(minShared)
	// Chance baseline: the fraction of *all* channel pairs that share a
	// primary category. Clustering should beat chance by a wide margin.
	same, pairs := 0, 0
	for i := 0; i < len(tr.Channels); i++ {
		for j := i + 1; j < len(tr.Channels); j++ {
			pairs++
			if tr.Channels[i].Primary == tr.Channels[j].Primary {
				same++
			}
		}
	}
	baseline := float64(same) / float64(pairs)
	if frac < 1.5*baseline {
		t.Errorf("intra-category edge fraction = %v, chance baseline = %v; want clustering well above chance", frac, baseline)
	}
}

func TestSharedSubscriberGraphSymmetricAndOrdered(t *testing.T) {
	tr := statsTrace(t)
	edges := tr.SharedSubscriberGraph(2)
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge (%d,%d) not ordered", e.A, e.B)
		}
		if e.Shared < 2 {
			t.Fatalf("edge below threshold: %d", e.Shared)
		}
	}
}

// TestFig11ChannelsFocusOnFewCategories: median channel spans few categories.
func TestFig11ChannelsFocusOnFewCategories(t *testing.T) {
	tr := statsTrace(t)
	counts := tr.InterestsPerChannel()
	sort.Float64s(counts)
	if med := Quantile(counts, 0.5); med > 4 {
		t.Errorf("median categories per channel = %v, want small", med)
	}
}

// TestFig12InterestSimilarityHigh: users subscribe within their interests —
// the paper reports a median similarity of 1.0.
func TestFig12InterestSimilarityHigh(t *testing.T) {
	tr := statsTrace(t)
	sims := tr.InterestSimilarities()
	sort.Float64s(sims)
	for _, s := range sims {
		if s < 0 || s > 1 {
			t.Fatalf("similarity %v outside [0,1]", s)
		}
	}
	if med := Quantile(sims, 0.5); med < 0.5 {
		t.Errorf("median interest similarity = %v, want high", med)
	}
}

// TestFig13InterestsPerUserBounded: around 60% of users have fewer than 10
// interests; the maximum stays at the configured cap.
func TestFig13InterestsPerUserBounded(t *testing.T) {
	tr := statsTrace(t)
	counts := tr.InterestsPerUser()
	below10 := 0
	maxSeen := 0.0
	for _, c := range counts {
		if c < 10 {
			below10++
		}
		if c > maxSeen {
			maxSeen = c
		}
	}
	frac := float64(below10) / float64(len(counts))
	if frac < 0.4 {
		t.Errorf("fraction of users with <10 interests = %v, paper says ≈0.6", frac)
	}
	if maxSeen > 18 {
		t.Errorf("max interests = %v, paper max ≈18", maxSeen)
	}
}

// TestFig8FavoritesCorrelateWithViews mirrors the Chatzopoulou et al.
// observation the paper cites.
func TestFig8FavoritesCorrelateWithViews(t *testing.T) {
	tr := statsTrace(t)
	views := tr.ViewsPerVideo()
	favs := tr.FavoritesPerVideo()
	if r := Pearson(views, favs); r < 0.8 {
		t.Errorf("views/favorites Pearson = %v, want > 0.8", r)
	}
}

func TestSummarize(t *testing.T) {
	tr := statsTrace(t)
	s := tr.Summarize()
	if s.Channels != len(tr.Channels) || s.Users != len(tr.Users) || s.Videos != len(tr.Videos) {
		t.Error("summary counts do not match trace")
	}
	if s.ViewsSubsCorr <= 0 {
		t.Errorf("summary correlation %v, want positive", s.ViewsSubsCorr)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := smallConfig(12)
	tr := mustGenerate(t, cfg)
	var buf bytes.Buffer
	if err := tr.SaveStream(&buf); err != nil {
		t.Fatalf("SaveStream: %v", err)
	}
	got, err := LoadStream(&buf)
	if err != nil {
		t.Fatalf("LoadStream: %v", err)
	}
	if len(got.Videos) != len(tr.Videos) || len(got.Users) != len(tr.Users) {
		t.Fatal("round trip lost entities")
	}
	if got.Videos[0].Views != tr.Videos[0].Views {
		t.Error("round trip changed video data")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadStream(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadRejectsBrokenReferences(t *testing.T) {
	bad := `{"format":"` + StreamFormat + `","seed":1,"categories":2,"channels":1,"videos":0,"users":0,"catArena":1,"vidArena":1}
{"channels":[{"id":0,"primary":0,"categories":[0],"videos":[99],"subscribers":[]}]}
{"eof":true}
`
	if _, err := LoadStream(bytes.NewBufferString(bad)); err == nil || !strings.Contains(err.Error(), "missing video 99") {
		t.Fatalf("dangling video reference: got %v, want a validation error naming it", err)
	}
}

func TestTraceAccessorsOutOfRange(t *testing.T) {
	tr := mustGenerate(t, smallConfig(13))
	if tr.Channel(-1) != nil || tr.Channel(ChannelID(len(tr.Channels))) != nil {
		t.Error("Channel out-of-range should be nil")
	}
	if tr.Video(-1) != nil || tr.Video(VideoID(len(tr.Videos))) != nil {
		t.Error("Video out-of-range should be nil")
	}
	if tr.User(-1) != nil || tr.User(UserID(len(tr.Users))) != nil {
		t.Error("User out-of-range should be nil")
	}
	if tr.ChannelViews(-1) != 0 {
		t.Error("ChannelViews out-of-range should be 0")
	}
}
