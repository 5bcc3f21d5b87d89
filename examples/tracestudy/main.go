// Tracestudy reproduces the paper's Section III trace analysis on a
// synthetic crawl: it verifies the five observations (O1–O5) that motivate
// SocialTube's design and prints the supporting numbers.
//
//	go run ./examples/tracestudy
package main

import (
	"fmt"
	"log"
	"sort"

	socialtube "github.com/socialtube/socialtube"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func quantile(values []float64, q float64) float64 {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func run() error {
	cfg := socialtube.DefaultTraceConfig()
	cfg.Channels = 545
	cfg.Users = 2000
	tr, err := socialtube.GenerateTrace(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("synthetic crawl: %d channels, %d videos, %d users\n\n",
		len(tr.Channels), len(tr.Videos), len(tr.Users))

	// O1: uploads accelerate over time (scalability pressure).
	growth := tr.VideoGrowth(10)
	firstHalf, secondHalf := growth[4], growth[9]-growth[4]
	fmt.Printf("O1  uploads accelerate: first half %d videos, second half %d\n",
		firstHalf, secondHalf)

	// O2: channel popularity varies widely and correlates with
	// subscriptions — a channel-based P2P structure pays off.
	subs, views := tr.ViewsVsSubscriptions()
	fmt.Printf("O2  channel-based sharing: views/subscriptions Pearson %.2f; "+
		"subscribers p25=%.0f p75=%.0f\n",
		socialtube.Pearson(subs, views), quantile(subs, 0.25), quantile(subs, 0.75))

	// O3: video popularity within a channel is Zipf — prefetch the top.
	ch := tr.ChannelPopularityClass(1.0)
	fmt.Printf("O3  within-channel Zipf: top channel %d has %d videos; "+
		"single-prefetch accuracy (25-video channel) %.1f%%, top-4 %.1f%%\n",
		ch.ID, len(ch.Videos),
		100*socialtube.PrefetchAccuracy(25, 1), 100*socialtube.PrefetchAccuracy(25, 4))

	// O4: channels cluster by shared subscribers.
	frac := tr.IntraCategoryEdgeFraction(3)
	fmt.Printf("O4  clustering: %.0f%% of shared-subscriber edges stay within one category\n", 100*frac)

	// O5: channels focus on few categories; users subscribe within their
	// interests.
	perChannel := tr.InterestsPerChannel()
	sims := tr.InterestSimilarities()
	fmt.Printf("O5  focus: median categories/channel %.0f; median interest similarity %.2f\n",
		quantile(perChannel, 0.5), quantile(sims, 0.5))

	// The consequence (Fig. 15): bounded links beat per-video overlays.
	m := socialtube.DefaultMaintenanceModel()
	fmt.Printf("\nFig. 15 model: after 10 videos a NetTube node maintains %.0f links, "+
		"a SocialTube node %.0f\n", m.NetTube(10), m.SocialTube(10))
	return nil
}
