// Package core implements SocialTube, the paper's primary contribution: an
// interest-based per-community hierarchical P2P structure for short-video
// sharing. Subscribers of one channel form a lower-level overlay bounded to
// N_l inner-links per node; all users watching channels of one interest
// category form a higher-level cluster bounded to N_h inter-links. Queries
// flood the channel overlay with a TTL, then the category overlay, then fall
// back to the server, and nodes prefetch the first chunks of the most
// popular videos of the channel they are watching.
package core

import (
	"fmt"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/overlay"
)

// Config holds SocialTube's protocol parameters. Defaults are the paper's
// Table I settings.
type Config struct {
	// InnerLinks is N_l, the bound on links in the lower-level channel
	// overlay (paper: 5).
	InnerLinks int
	// InterLinks is N_h, the bound on links in the higher-level category
	// cluster (paper: 10).
	InterLinks int
	// TTL bounds query forwarding hops in each overlay level (paper: 2).
	TTL int
	// PrefetchCount is M, the number of top-popularity channel videos
	// whose first chunks a node prefetches (paper: 3; 0 disables
	// prefetching).
	PrefetchCount int
	// CacheVideos bounds each node's cache in full videos (0 reproduces
	// the paper's unbounded session cache).
	CacheVideos int
	// Seed drives the protocol's random choices (server peer selection).
	Seed int64
}

// DefaultConfig returns the paper's Table I protocol parameters.
func DefaultConfig() Config {
	return Config{
		InnerLinks:    5,
		InterLinks:    10,
		TTL:           2,
		PrefetchCount: 3,
		Seed:          1,
	}
}

// Validate reports the first problem with the configuration. InterLinks may
// be zero: that disables the higher-level overlay, the channel-only
// ablation discussed in DESIGN.md.
func (c Config) Validate() error {
	switch {
	case c.InnerLinks <= 0 || c.InnerLinks > overlay.MaxLinks:
		return fmt.Errorf("%w: innerLinks=%d", dist.ErrBadParameter, c.InnerLinks)
	case c.InterLinks < 0 || c.InterLinks > overlay.MaxLinks:
		return fmt.Errorf("%w: interLinks=%d", dist.ErrBadParameter, c.InterLinks)
	case c.TTL <= 0:
		return fmt.Errorf("%w: ttl=%d", dist.ErrBadParameter, c.TTL)
	case c.PrefetchCount < 0:
		return fmt.Errorf("%w: prefetchCount=%d", dist.ErrBadParameter, c.PrefetchCount)
	case c.CacheVideos < 0:
		return fmt.Errorf("%w: cacheVideos=%d", dist.ErrBadParameter, c.CacheVideos)
	}
	return nil
}
