// Quickstart: generate a synthetic YouTube social-network trace, run the
// SocialTube protocol through the trace-driven simulator, and print the
// paper's three evaluation metrics.
//
//	go run ./examples/quickstart
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
	// 1. A laptop-sized social network: 150 channels, 400 users.
	traceCfg := socialtube.DefaultTraceConfig()
	traceCfg.Channels = 150
	traceCfg.Users = 400
	traceCfg.Categories = 10
	traceCfg.MaxInterestsPerUser = 10
	tr, err := socialtube.GenerateTrace(traceCfg)
	if err != nil {
		return err
	}
	s := tr.Summarize()
	fmt.Printf("trace: %d channels / %d videos / %d users, views-subs correlation %.2f\n",
		s.Channels, s.Videos, s.Users, s.ViewsSubsCorr)

	// 2. SocialTube with the paper's Table I parameters (N_l=5, N_h=10,
	// TTL=2, prefetch M=3).
	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
	if err != nil {
		return err
	}

	// 3. A shortened workload: 3 sessions of 6 videos per user.
	expCfg := socialtube.DefaultExperimentConfig()
	expCfg.Sessions = 3
	expCfg.VideosPerSession = 6
	expCfg.WatchScale = 0.05 // compress playback 20x
	expCfg.MeanOffTime = 60 * time.Second
	expCfg.Horizon = 12 * time.Hour
	res, err := socialtube.RunExperimentCtx(context.Background(), expCfg, tr, sys,
		socialtube.DefaultNetworkConfig(), socialtube.ExperimentOptions{})
	if err != nil {
		return err
	}

	p1, p50, p99 := res.NormalizedPeerBandwidthPercentiles()
	fmt.Printf("requests: %d  (cache %d / peer %d / server %d, prefetch hits %d)\n",
		res.Requests, res.CacheHits.Value(), res.PeerHits.Value(),
		res.ServerHits.Value(), res.PrefixHits.Value())
	fmt.Printf("normalized peer bandwidth: p1=%.2f p50=%.2f p99=%.2f\n", p1, p50, p99)
	fmt.Printf("startup delay: mean %.0f ms, p99 %.0f ms\n",
		res.StartupDelay.Mean(), res.StartupDelay.Percentile(99))
	fmt.Printf("server bytes %d, peer bytes %d\n", res.ServerBytes, res.PeerBytes)
	return nil
}
