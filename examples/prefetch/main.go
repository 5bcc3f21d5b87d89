// Prefetch studies SocialTube's channel-facilitated popularity-based
// prefetching (§IV-B): it compares the closed-form Zipf prediction with the
// accuracy measured in a live simulation, and shows the startup-delay win.
//
//	go run ./examples/prefetch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	socialtube "github.com/socialtube/socialtube"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Closed-form accuracy (the paper quotes 26.2% for one prefetch and
	// 54.6% for 3-4 on a 25-video channel).
	fmt.Println("predicted prefetch accuracy, 25-video channel (Zipf s=1):")
	for m := 1; m <= 5; m++ {
		fmt.Printf("  top-%d prefetched: %.1f%%\n", m, 100*socialtube.PrefetchAccuracy(25, m))
	}

	traceCfg := socialtube.DefaultTraceConfig()
	traceCfg.Channels = 200
	traceCfg.Users = 400
	traceCfg.Categories = 10
	traceCfg.MaxInterestsPerUser = 10
	tr, err := socialtube.GenerateTrace(traceCfg)
	if err != nil {
		return err
	}

	expCfg := socialtube.DefaultExperimentConfig()
	expCfg.Sessions = 3
	expCfg.VideosPerSession = 8
	expCfg.WatchScale = 0.05
	expCfg.MeanOffTime = 60 * time.Second
	expCfg.Horizon = 12 * time.Hour

	fmt.Println("\nmeasured effect of prefetching (SocialTube, simulator):")
	for _, m := range []int{0, 1, 3, 5} {
		sysCfg := socialtube.DefaultSystemConfig()
		sysCfg.PrefetchCount = m
		sys, err := socialtube.NewSystem(sysCfg, tr)
		if err != nil {
			return err
		}
		res, err := socialtube.RunExperimentCtx(context.Background(), expCfg, tr, sys,
			socialtube.DefaultNetworkConfig(), socialtube.ExperimentOptions{})
		if err != nil {
			return err
		}
		nonCache := res.Requests - res.CacheHits.Value()
		hitRate := 0.0
		if nonCache > 0 {
			hitRate = float64(res.PrefixHits.Value()) / float64(nonCache)
		}
		fmt.Printf("  M=%d: prefetch hit rate %.1f%%, mean startup %.0f ms, p99 %.0f ms\n",
			m, 100*hitRate, res.StartupDelay.Mean(), res.StartupDelay.Percentile(99))
	}
	return nil
}
