// Package socialtube is a from-scratch reproduction of "An Interest-based
// Per-Community P2P Hierarchical Structure for Short Video Sharing in the
// YouTube Social Network" (Shen, Lin, Chandler — ICDCS 2014).
//
// SocialTube organizes a P2P video-on-demand swarm around the *social*
// structure of YouTube rather than around individual videos: subscribers of
// one channel form a lower-level overlay (at most N_l inner-links per node),
// all users of channels within one interest category form a higher-level
// cluster (at most N_h inter-links), queries flood the channel overlay with
// a TTL, then the category cluster, then fall back to the server, and nodes
// prefetch the first chunks of the most popular videos of the channel they
// are watching.
//
// The package exposes four layers:
//
//   - Trace: a synthetic YouTube social network whose distributions match
//     the paper's Section III crawl (GenerateTrace).
//   - Protocols: SocialTube (NewSystem) plus the NetTube and PA-VoD
//     baselines (NewNetTube, NewPAVoD), all implementing Protocol.
//   - Simulation: a discrete-event, trace-driven experiment engine
//     (RunExperimentCtx) reproducing the PeerSim evaluation.
//   - Emulation: real TCP nodes on loopback with injected WAN latency and
//     loss (RunClusterCtx) reproducing the PlanetLab evaluation.
//
// A minimal end-to-end run:
//
//	tr, err := socialtube.GenerateTrace(socialtube.DefaultTraceConfig())
//	if err != nil { ... }
//	sys, err := socialtube.NewSystem(socialtube.DefaultSystemConfig(), tr)
//	if err != nil { ... }
//	res, err := socialtube.RunExperimentCtx(ctx,
//		socialtube.DefaultExperimentConfig(), tr, sys,
//		socialtube.DefaultNetworkConfig(), socialtube.ExperimentOptions{})
//	if err != nil { ... }
//	p1, p50, p99 := res.NormalizedPeerBandwidthPercentiles()
//
// # Fault injection and observability
//
// RunExperimentCtx and RunClusterCtx are the two run entry points. A
// simulated run takes its network and its cross-cutting concerns — a
// deterministic fault plan, a telemetry window, an open-loop load profile —
// as arguments, and a tracer is installed on the protocol itself
// (sys.SetTracer); a cluster run reads its fault plan and tracer, plus WAN
// conditions and the control-plane shape, from its ClusterConfig. Both
// results carry the run's final counter snapshot in Obs:
//
//	res, err := socialtube.RunExperimentCtx(ctx,
//		socialtube.DefaultExperimentConfig(), tr, sys,
//		socialtube.DefaultNetworkConfig(),
//		socialtube.ExperimentOptions{Faults: socialtube.ChurnPlan(1, 4*time.Minute)})
//	if err != nil { ... }
//	fmt.Println(res.Resilience.HitRateUnderFaults(), res.Obs.RepairCalls)
//
// The same FaultPlan drives both engines: compiled once per run from its
// seed, it replays identically in simulated time (RunExperimentCtx) and
// on wall-clock offsets against live TCP nodes (RunClusterCtx).
package socialtube

import (
	"context"
	"time"

	"github.com/socialtube/socialtube/internal/baseline"
	"github.com/socialtube/socialtube/internal/core"
	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// Trace layer: the synthetic YouTube social network.
type (
	// Trace is a synthetic crawl of the modelled YouTube social network.
	Trace = trace.Trace
	// TraceConfig controls synthetic trace generation.
	TraceConfig = trace.Config
	// TraceSummary aggregates a trace's headline statistics.
	TraceSummary = trace.Summary
	// Channel is one YouTube channel.
	Channel = trace.Channel
	// Video is one uploaded video.
	Video = trace.Video
	// User is one registered user.
	User = trace.User
	// ChannelID identifies a channel.
	ChannelID = trace.ChannelID
	// VideoID identifies a video.
	VideoID = trace.VideoID
	// UserID identifies a user.
	UserID = trace.UserID
	// CategoryID identifies an interest category.
	CategoryID = trace.CategoryID
)

// DefaultTraceConfig returns a laptop-scale trace configuration whose
// distributions follow the paper's Section III measurements.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// GenerateTrace builds a synthetic trace; the same configuration always
// yields the same trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// CrawlTrace samples a sub-trace by breadth-first search over subscription
// relationships — the paper's Section III data-collection methodology.
func CrawlTrace(tr *Trace, seed int64, maxUsers int) (*Trace, error) {
	return trace.Crawl(tr, seed, maxUsers)
}

// Protocol layer: SocialTube and the two baselines.
type (
	// Protocol is the contract every P2P VoD scheme implements.
	Protocol = vod.Protocol
	// RequestResult describes how a protocol located one video.
	RequestResult = vod.RequestResult
	// Source says who served a request.
	Source = vod.Source

	// System is the SocialTube protocol (the paper's contribution).
	System = core.System
	// SystemConfig holds SocialTube's parameters (N_l, N_h, TTL, M).
	SystemConfig = core.Config
	// MaintenanceModel is the closed-form Fig. 15 overhead model.
	MaintenanceModel = core.MaintenanceModel

	// NetTube is the per-video-overlay baseline.
	NetTube = baseline.NetTube
	// NetTubeConfig holds NetTube's parameters.
	NetTubeConfig = baseline.NetTubeConfig
	// PAVoD is the peer-assisted, cache-less baseline.
	PAVoD = baseline.PAVoD
	// PAVoDConfig holds PA-VoD's parameters.
	PAVoDConfig = baseline.PAVoDConfig
)

// Request sources.
const (
	// SourceCache means the node already held the video locally.
	SourceCache = vod.SourceCache
	// SourcePeer means another peer supplied the video.
	SourcePeer = vod.SourcePeer
	// SourceServer means the central server supplied the video.
	SourceServer = vod.SourceServer
)

// DefaultSystemConfig returns the paper's Table I protocol parameters
// (N_l=5, N_h=10, TTL=2, M=3).
func DefaultSystemConfig() SystemConfig { return core.DefaultConfig() }

// NewSystem builds a SocialTube system over the trace.
func NewSystem(cfg SystemConfig, tr *Trace) (*System, error) { return core.New(cfg, tr) }

// DefaultNetTubeConfig returns NetTube's comparison parameters.
func DefaultNetTubeConfig() NetTubeConfig { return baseline.DefaultNetTubeConfig() }

// NewNetTube builds a NetTube baseline over the trace.
func NewNetTube(cfg NetTubeConfig, tr *Trace) (*NetTube, error) {
	return baseline.NewNetTube(cfg, tr)
}

// DefaultPAVoDConfig returns PA-VoD's parameters.
func DefaultPAVoDConfig() PAVoDConfig { return baseline.DefaultPAVoDConfig() }

// NewPAVoD builds a PA-VoD baseline over the trace.
func NewPAVoD(cfg PAVoDConfig, tr *Trace) (*PAVoD, error) {
	return baseline.NewPAVoD(cfg, tr)
}

// DefaultMaintenanceModel returns Fig. 15's model parameters.
func DefaultMaintenanceModel() MaintenanceModel { return core.DefaultMaintenanceModel() }

// PrefetchAccuracy returns the §IV-B probability that one of the top
// prefetchCount videos of a channelVideos-video channel is watched next.
func PrefetchAccuracy(channelVideos, prefetchCount int) float64 {
	return core.PrefetchAccuracy(channelVideos, prefetchCount)
}

// Simulation layer: the PeerSim-style trace-driven evaluation.
type (
	// ExperimentConfig sets the simulated workload (Table I).
	ExperimentConfig = exp.Config
	// ExperimentResult aggregates one simulated run.
	ExperimentResult = exp.Result
	// ExperimentOptions carries a simulated run's cross-cutting concerns:
	// fault plan, telemetry window and open-loop load profile.
	ExperimentOptions = exp.Options
	// NetworkConfig sets the simulated network (bandwidths, latency).
	NetworkConfig = simnet.Config
	// Resilience aggregates a run's degradation-and-recovery metrics.
	Resilience = exp.Resilience
)

// Observability layer: protocol counters and event tracing.
type (
	// Counters is the protocol-wide counter set a run snapshots.
	Counters = obs.Counters
	// Tracer receives protocol events once installed on a protocol
	// (SetTracer) or a cluster (ClusterConfig.Tracer).
	Tracer = obs.Tracer
	// TraceEvent is one emitted protocol event.
	TraceEvent = obs.Event
)

// NopTracer discards every event; install it to measure tracing overhead.
var NopTracer = obs.Nop

// Fault layer: deterministic fault plans shared by sim and emu runs.
type (
	// FaultPlan is a seeded, declarative fault-injection plan.
	FaultPlan = faults.Plan
	// ChurnWave crashes a set of nodes around one instant.
	ChurnWave = faults.ChurnWave
	// LinkBurst degrades link latency/loss for a window.
	LinkBurst = faults.LinkBurst
	// Outage takes the tracker/server down for a window.
	Outage = faults.Outage
	// FaultSchedule is a compiled, replayable fault event sequence.
	FaultSchedule = faults.Schedule
)

// ChurnPlan returns a canonical churn-stress plan scaled by unit.
func ChurnPlan(seed int64, unit time.Duration) *FaultPlan { return faults.ChurnPlan(seed, unit) }

// OutagePlan returns a canonical tracker-outage plan scaled by unit.
func OutagePlan(seed int64, unit time.Duration) *FaultPlan { return faults.OutagePlan(seed, unit) }

// ReplicaOutagePlan darkens one replica of one tracker shard (1-based)
// for two units — the sharded control plane's canonical outage stress.
func ReplicaOutagePlan(seed int64, unit time.Duration, shard, replica int) *FaultPlan {
	return faults.ReplicaOutagePlan(seed, unit, shard, replica)
}

// DefaultExperimentConfig returns Table I's workload parameters.
func DefaultExperimentConfig() ExperimentConfig { return exp.DefaultConfig() }

// DefaultNetworkConfig returns Table I's network parameters.
func DefaultNetworkConfig() NetworkConfig { return simnet.DefaultConfig() }

// RunExperimentCtx drives the protocol over the trace with churn under
// ctx, on the simulated network net, and returns the paper's three
// evaluation metrics. opts attaches a fault plan, a telemetry timeline or
// an open-loop load profile; its zero value is a plain healthy run.
func RunExperimentCtx(ctx context.Context, cfg ExperimentConfig, tr *Trace, p Protocol, net NetworkConfig, opts ExperimentOptions) (*ExperimentResult, error) {
	return exp.RunCtx(ctx, cfg, tr, p, net, opts)
}

// Emulation layer: the PlanetLab-style TCP evaluation.
type (
	// ClusterConfig drives one emulated experiment over loopback TCP.
	ClusterConfig = emu.ClusterConfig
	// ClusterResult aggregates one emulated run.
	ClusterResult = emu.ClusterResult
	// Mode selects which protocol emulated peers speak.
	Mode = emu.Mode
	// Conditions injects WAN latency and loss into loopback TCP.
	Conditions = emu.Conditions
	// Peer is one TCP node (for hand-built topologies).
	Peer = emu.Peer
	// PeerConfig sets one TCP node's parameters.
	PeerConfig = emu.PeerConfig
	// Tracker is the central TCP server (one control-plane replica).
	Tracker = emu.Tracker
	// TrackerConfig sets the central server's parameters.
	TrackerConfig = emu.TrackerConfig
	// ControlPlane is the sharded, replicated tracker plane peers route
	// tracker-path RPCs through.
	ControlPlane = emu.ControlPlane
	// ControlPlaneConfig shapes the plane (shards, replicas per shard,
	// ring seed, gossip cadence).
	ControlPlaneConfig = emu.ControlPlaneConfig
	// ShardHandle addresses one shard's replicas for fault injection.
	ShardHandle = emu.ShardHandle
)

// Emulation protocol modes.
const (
	// ModeSocialTube runs the hierarchical per-community protocol.
	ModeSocialTube = emu.ModeSocialTube
	// ModeNetTube runs per-video overlays.
	ModeNetTube = emu.ModeNetTube
	// ModePAVoD runs server-directed peer assistance.
	ModePAVoD = emu.ModePAVoD
)

// DefaultClusterConfig returns a loopback-scaled PlanetLab workload.
func DefaultClusterConfig(mode Mode) ClusterConfig { return emu.DefaultClusterConfig(mode) }

// DefaultConditions returns WAN-like latency/loss for loopback runs.
func DefaultConditions() *Conditions { return emu.DefaultConditions() }

// DefaultTrackerConfig returns loopback-scaled tracker settings.
func DefaultTrackerConfig() TrackerConfig { return emu.DefaultTrackerConfig() }

// DefaultPeerConfig returns loopback-scaled peer settings.
func DefaultPeerConfig(id int, mode Mode) PeerConfig { return emu.DefaultPeerConfig(id, mode) }

// NewTracker builds a TCP tracker over the trace.
func NewTracker(cfg TrackerConfig, tr *Trace, cond *Conditions) (*Tracker, error) {
	return emu.NewTracker(cfg, tr, cond)
}

// NewPeerWithControlPlane builds one TCP peer that routes tracker-path
// RPCs through the control plane's shard routing and fails over
// between a shard's replicas.
func NewPeerWithControlPlane(cfg PeerConfig, tr *Trace, cp *ControlPlane, cond *Conditions) (*Peer, error) {
	return emu.NewPeerWithControlPlane(cfg, tr, cp, cond)
}

// DefaultControlPlaneConfig returns the canonical 2x2 sharded plane.
func DefaultControlPlaneConfig() ControlPlaneConfig { return emu.DefaultControlPlaneConfig() }

// StartControlPlane launches a sharded, replicated tracker plane
// in-process; the caller owns Stop.
func StartControlPlane(cfg ControlPlaneConfig, tc TrackerConfig, tr *Trace, cond *Conditions) (*ControlPlane, error) {
	return emu.StartControlPlane(cfg, tc, tr, cond)
}

// NewControlPlaneClient builds a routing-only plane over already-running
// tracker endpoints (replicas[shard][replica] lists their addresses); one
// address is the 1x1 plane over a single tracker.
func NewControlPlaneClient(ringSeed int64, replicas [][]string) (*ControlPlane, error) {
	return emu.NewControlPlaneClient(ringSeed, replicas)
}

// RunClusterCtx starts a control plane plus peers, drives the session
// workload under ctx and returns aggregated metrics: cancellation stops
// the workload and releases every tracker and peer goroutine before
// returning ctx.Err(). cfg carries the run's conditions, fault plan,
// tracer and control-plane shape.
func RunClusterCtx(ctx context.Context, cfg ClusterConfig, tr *Trace) (*ClusterResult, error) {
	return emu.RunClusterCtx(ctx, cfg, tr)
}
