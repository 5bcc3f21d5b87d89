package core

import (
	"math"

	"github.com/socialtube/socialtube/internal/dist"
)

// MaintenanceModel is the closed-form overhead comparison of §IV-C
// (Fig. 15). With random links, the optimal hop/link tradeoff sets
// N_l = log(u_c) and N_h = log(u_t), so SocialTube's overhead is
// log(u_c) + log(u_t) regardless of viewing activity, while NetTube's is
// m·log(u): one overlay of log(u) links per video watched.
type MaintenanceModel struct {
	// UsersPerVideo is u, the viewers of one video (paper: 500).
	UsersPerVideo int
	// UsersPerChannel is u_c, the subscribers of one channel
	// (paper: 5,000).
	UsersPerChannel int
	// UsersPerInterest is u_t, all users within one interest category
	// (paper: 25,000).
	UsersPerInterest int
}

// DefaultMaintenanceModel returns the parameters used for Fig. 15.
func DefaultMaintenanceModel() MaintenanceModel {
	return MaintenanceModel{UsersPerVideo: 500, UsersPerChannel: 5_000, UsersPerInterest: 25_000}
}

// SocialTube returns the modelled number of links a SocialTube node
// maintains — constant in the number of videos watched.
func (m MaintenanceModel) SocialTube(videosWatched int) float64 {
	if videosWatched <= 0 {
		return 0
	}
	return math.Log2(float64(m.UsersPerChannel)) + math.Log2(float64(m.UsersPerInterest))
}

// NetTube returns the modelled number of links a NetTube node maintains
// after watching the given number of videos: m·log(u), linear in m.
func (m MaintenanceModel) NetTube(videosWatched int) float64 {
	if videosWatched <= 0 {
		return 0
	}
	return float64(videosWatched) * math.Log2(float64(m.UsersPerVideo))
}

// PrefetchAccuracy returns the probability that one of the top
// prefetchCount videos of a channel with channelVideos videos is watched
// next, under the Zipf(s=1) within-channel popularity of §IV-B. For a
// 25-video channel the paper quotes 26.2% for a single prefetch and 54.6%
// for 3–4 prefetches.
func PrefetchAccuracy(channelVideos, prefetchCount int) float64 {
	if channelVideos <= 0 || prefetchCount <= 0 {
		return 0
	}
	z, _ := dist.NewZipf(channelVideos, 1) // n ≥ 1 and s = 1 always build
	return z.TopP(prefetchCount)
}
