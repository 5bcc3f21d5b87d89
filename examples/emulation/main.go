// Emulation builds a small real-network SocialTube deployment by hand: a
// one-tracker control plane plus a handful of TCP peers on loopback with injected WAN
// latency, then shows one video travelling server → peer cache → peer
// delivery, and finishes with a full three-protocol cluster comparison.
//
//	go run ./examples/emulation
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
	traceCfg := socialtube.DefaultTraceConfig()
	traceCfg.Channels = 60
	traceCfg.Users = 32
	traceCfg.Categories = 6
	traceCfg.MaxInterestsPerUser = 6
	tr, err := socialtube.GenerateTrace(traceCfg)
	if err != nil {
		return err
	}

	cond := socialtube.DefaultConditions()
	plane, err := socialtube.StartControlPlane(
		socialtube.ControlPlaneConfig{Shards: 1, Replicas: 1},
		socialtube.DefaultTrackerConfig(), tr, cond)
	if err != nil {
		return err
	}
	defer plane.Stop()
	fmt.Printf("tracker listening on %s\n", plane.First().Addr())

	// Two peers subscribed to the same channel.
	var a, b int
	var v socialtube.VideoID
	for _, ch := range tr.Channels {
		if len(ch.Subscribers) >= 2 && len(ch.Videos) > 0 &&
			int(ch.Subscribers[0]) < 32 && int(ch.Subscribers[1]) < 32 {
			a, b = int(ch.Subscribers[0]), int(ch.Subscribers[1])
			v = ch.Videos[0]
			break
		}
	}
	peerA, err := socialtube.NewPeerWithControlPlane(socialtube.DefaultPeerConfig(a, socialtube.ModeSocialTube), tr, plane, cond)
	if err != nil {
		return err
	}
	if err := peerA.Start(); err != nil {
		return err
	}
	defer peerA.Stop()
	peerB, err := socialtube.NewPeerWithControlPlane(socialtube.DefaultPeerConfig(b, socialtube.ModeSocialTube), tr, plane, cond)
	if err != nil {
		return err
	}
	if err := peerB.Start(); err != nil {
		return err
	}
	defer peerB.Stop()

	// Peer A fetches the video (server) and caches it; peer B then finds
	// it through the channel overlay.
	recA := peerA.RequestVideo(v)
	peerA.FinishVideo(v)
	fmt.Printf("peer %d fetched video %d from %s in %v\n", a, v, recA.Source, recA.Startup.Round(time.Millisecond))
	recB := peerB.RequestVideo(v)
	peerB.FinishVideo(v)
	fmt.Printf("peer %d fetched video %d from %s in %v (links: %d)\n\n",
		b, v, recB.Source, recB.Startup.Round(time.Millisecond), peerB.Links())

	// Full cluster comparison across the three protocols.
	for _, mode := range []socialtube.Mode{socialtube.ModePAVoD, socialtube.ModeSocialTube, socialtube.ModeNetTube} {
		cfg := socialtube.DefaultClusterConfig(mode)
		cfg.Peers = 16
		cfg.Sessions = 2
		cfg.VideosPerSession = 5
		cfg.WatchTime = 15 * time.Millisecond
		res, err := socialtube.RunClusterCtx(context.Background(), cfg, tr)
		if err != nil {
			return err
		}
		_, p50, _ := res.NormalizedPeerBandwidthPercentiles()
		fmt.Printf("%-11s peer-bandwidth p50 %.2f  startup mean %.0f ms  (cache %d / peer %d / server %d)\n",
			res.Protocol, p50, res.StartupDelay.Mean(), res.CacheHits.Value(), res.PeerHits.Value(), res.ServerHits.Value())
	}
	return nil
}
