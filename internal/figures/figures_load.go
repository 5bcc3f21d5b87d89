package figures

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
	"github.com/socialtube/socialtube/internal/load"
)

// LoadSweep configures the open-loop load figure: the three protocols
// driven by a rate profile (internal/load) instead of the closed-loop
// session replay, against a server with a bounded admission queue. Each
// RPS entry is one column of the figure; the sweep reports how startup
// delay (p50/p99/p999), server offload and shed rate move as the offered
// rate crosses the system's service capacity.
type LoadSweep struct {
	// RPS are the offered arrival rates, one sweep column per entry.
	RPS []float64
	// Mode shapes the profile around each RPS value (steady, ramp,
	// sweep, burst, diurnal — see the profile builder for how each
	// mode's knobs derive from the column's rate).
	Mode load.Mode
	// Duration is each column's offered-arrival window in virtual time.
	Duration time.Duration
	// QueueCap bounds the server's admission queue; 0 keeps the legacy
	// unbounded server and nothing is ever shed.
	QueueCap int
	// Flash, when non-nil, layers a flash crowd on every column: the
	// channel's viral video is slammed by the profile's flash share.
	Flash *load.FlashCrowd
	// Scale is every cell's configuration: the fixed trace shared by
	// every column, the playback compression, and the seed of the trace,
	// the protocols and the arrival streams. RunLoad sets Sessions and
	// VideosPerSession to 1 (see there).
	Scale Scale
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(msg string)
}

// DefaultLoadSweep is the standard overload arc at a small population:
// the low column is comfortably inside capacity, the middle sits near
// saturation, and the top column overruns the admission queue so the
// shed path is exercised on every run.
func DefaultLoadSweep() LoadSweep {
	return LoadSweep{
		RPS:      []float64{2, 6, 18},
		Mode:     load.Steady,
		Duration: 90 * time.Second,
		QueueCap: 32,
		Scale: Scale{
			TraceChannels: 100,
			TraceUsers:    300,
			Categories:    10,
			WatchScale:    0.05,
			Seed:          1,
		},
	}
}

// PaperLoadSweep widens the arc to the Table I catalog shape (545
// channels, 18 categories) over a 2k-user population, with columns
// scaled so the top one still overruns the default 50 Mbps uplink.
func PaperLoadSweep() LoadSweep {
	sw := DefaultLoadSweep()
	sw.RPS = []float64{4, 12, 36}
	sw.Duration = 120 * time.Second
	sw.Scale.TraceChannels = 545
	sw.Scale.TraceUsers = 2000
	sw.Scale.Categories = 18
	return sw
}

// profile shapes one column's rate profile around its RPS value. Every
// mode averages roughly rps over the window so columns stay comparable
// across modes; the shapes differ in how the rate gets there.
func (sw LoadSweep) profile(rps float64) *load.Profile {
	p := &load.Profile{
		Mode:     sw.Mode,
		Seed:     sw.Scale.Seed,
		RPS:      rps,
		Duration: sw.Duration,
		Flash:    sw.Flash,
	}
	switch sw.Mode {
	case load.Ramp:
		// Climb through the column's rate: 20% to 180%.
		p.RPS = rps * 0.2
		p.EndRPS = rps * 1.8
	case load.Sweep:
		// Three plateaus bracketing the column's rate.
		p.RPS = rps * 0.5
		p.EndRPS = rps * 1.5
		p.Steps = 3
	case load.Burst:
		// A 3x spike over the middle fifth of the window.
		p.BurstRPS = rps * 3
		p.BurstAt = sw.Duration * 2 / 5
		p.BurstFor = sw.Duration / 5
	case load.Diurnal:
		// Two full day-cycles across the window, ±50%.
		p.Period = sw.Duration / 2
		p.Swing = 0.5
	}
	return p
}

// LoadEnv carries a cell's environmental measurement — wall clock. It
// rides along in BENCH_load.json but never enters the figure tables, and
// determinism comparisons zero it.
type LoadEnv struct {
	WallMs float64 `json:"wallMs"`
}

// LoadPoint is one (offered RPS, protocol) cell of the load figure.
// Every field except Env is deterministic under a fixed seed.
type LoadPoint struct {
	Protocol string  `json:"protocol"`
	Seed     int64   `json:"seed"`
	Mode     string  `json:"mode"`
	RPS      float64 `json:"rps"`
	QueueCap int     `json:"queueCap"`
	// Offered arrivals, the flash-crowd subset, and arrivals dropped
	// because every node was already mid-session.
	Offered      int64 `json:"offered"`
	FlashOffered int64 `json:"flashOffered,omitempty"`
	Busy         int64 `json:"busy"`
	// Requests the protocol actually saw (offered minus busy drops).
	Requests int64 `json:"requests"`
	// Startup-delay percentiles over served (non-shed) requests.
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	// ServerOffload is the fraction of requests peers or the local
	// cache served — the load the overlay absorbed.
	ServerOffload float64 `json:"serverOffload"`
	// Admission-queue accounting: requests served vs turned away, the
	// shed fraction of server-bound requests, and the queue's
	// high-water occupancy.
	ServerAdmitted int64   `json:"serverAdmitted"`
	ServerShed     int64   `json:"serverShed"`
	ShedRate       float64 `json:"shedRate"`
	QueuePeak      int     `json:"queuePeak"`

	Env LoadEnv `json:"env"`
}

// loadPoint reduces one cell's run result to its figure point.
func (sw LoadSweep) loadPoint(protocol string, rps float64, res *exp.Result, wall time.Duration) LoadPoint {
	p := LoadPoint{
		Protocol: protocol,
		Seed:     sw.Scale.Seed,
		Mode:     string(sw.Mode),
		RPS:      rps,
		QueueCap: sw.QueueCap,
		Requests: res.Requests,
		P50Ms:    res.StartupDelay.Percentile(50),
		P99Ms:    res.StartupDelay.Percentile(99),
		P999Ms:   res.StartupDelay.Percentile(99.9),
		Env:      LoadEnv{WallMs: float64(wall.Nanoseconds()) / 1e6},
	}
	if info := res.Load; info != nil {
		p.Offered = info.Offered
		p.FlashOffered = info.FlashOffered
		p.Busy = info.Busy
		p.QueuePeak = info.QueuePeak
	}
	if res.Requests > 0 {
		p.ServerOffload = float64(res.CacheHits.Value()+res.PeerHits.Value()) / float64(res.Requests)
	}
	p.ServerAdmitted = int64(res.Obs.ServerAdmitted)
	p.ServerShed = int64(res.Obs.ServerShed)
	if bound := p.ServerAdmitted + p.ServerShed; bound > 0 {
		p.ShedRate = float64(p.ServerShed) / float64(bound)
	}
	return p
}

// RunLoad executes the sweep — one fixed trace, len(RPS)×3 cells through
// Scale.runJobs — and returns the per-cell table with the raw points.
func RunLoad(sw LoadSweep) (*Report, error) {
	if len(sw.RPS) == 0 {
		return nil, fmt.Errorf("load sweep: no RPS columns")
	}
	jobs := make([]simJob, 0, len(sw.RPS)*len(protoOrder))
	for _, rps := range sw.RPS {
		if err := sw.profile(rps).Validate(); err != nil {
			return nil, fmt.Errorf("load sweep: rps %g: %w", rps, err)
		}
		for _, j := range protocolJobs(protoOrder) {
			j.net.ServerQueueCap = sw.QueueCap
			j.opts.Load = sw.profile(rps)
			jobs = append(jobs, j)
		}
	}
	// Sessions and VideosPerSession still size the exp.Config, but under
	// Options.Load arrivals drive the session chains: one video per
	// arrival keeps the offered rate and the request rate identical.
	s := sw.Scale
	s.Sessions, s.VideosPerSession = 1, 1
	tr, err := s.BuildTrace()
	if err != nil {
		return nil, fmt.Errorf("load sweep: trace: %w", err)
	}
	points := make([]LoadPoint, len(jobs))
	_, err = s.runJobs(tr, 0, jobs, func(i int, res *exp.Result, wall time.Duration, _ int) {
		p := sw.loadPoint(jobs[i].label, sw.RPS[i/len(protoOrder)], res, wall)
		points[i] = p
		progressf(sw.Progress, "rps %g %s: offered %d, shed %d (%.3f), p99 %.0f ms, %v",
			p.RPS, p.Protocol, p.Offered, p.ServerShed, p.ShedRate, p.P99Ms, wall.Round(time.Millisecond))
	})
	if err != nil {
		return nil, fmt.Errorf("load sweep: %w", err)
	}
	t := NewTable(
		fmt.Sprintf("Open-loop load — %s profile over %s, server queue cap %d (simulator)",
			sw.Mode, sw.Duration, sw.QueueCap),
		"rps", "protocol", "offered", "busy", "requests", "offload",
		"p50Ms", "p99Ms", "p999Ms", "shed", "shedRate", "qPeak")
	for _, p := range points {
		t.AddRow(p.RPS, p.Protocol, p.Offered, p.Busy, p.Requests, p.ServerOffload,
			p.P50Ms, p.P99Ms, p.P999Ms, p.ServerShed, p.ShedRate, p.QueuePeak)
	}
	return report(points, t), nil
}
