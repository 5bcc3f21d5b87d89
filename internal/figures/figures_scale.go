package figures

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/exp"
)

// ScaleSweep configures the scalability sweep: the §IV-C / Fig. 15
// "constant-vs-linear maintenance" claim measured end to end rather than
// modelled. The user population grows across Sizes while the catalog
// (channels, videos) stays fixed, so a growing audience shares a fixed
// content base. Under that regime NetTube's per-video overlays densify
// with N — every extra concurrent watcher is another neighbour candidate,
// so per-node links and probe traffic grow — while SocialTube's per-node
// link budget (N_l inner + N_h inter) is a protocol constant, so its
// per-node maintenance must stay flat.
type ScaleSweep struct {
	// Sizes are the user populations, one point per entry.
	Sizes []int
	// Scale is every point's configuration, TraceUsers aside (each point
	// sets it to its entry of Sizes): the fixed catalog, the per-point
	// workload (deliberately small per user — the total is Sizes summed,
	// times three protocols), a probe interval compressed to match
	// WatchScale so every session sees several probe rounds, and the seed
	// of every point's trace and workload.
	Scale Scale
	// Progress, when non-nil, receives one line per trace build and per
	// completed point; paper-size sweeps run for minutes.
	Progress func(msg string)
}

// DefaultScaleSweep is the paper-scale sweep: 10k to 1M users over the
// Table I catalog (545 channels, ~100k videos).
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		Sizes: []int{10_000, 50_000, 100_000, 500_000, 1_000_000},
		Scale: Scale{
			TraceChannels:        545,
			Categories:           18,
			VideoCountMultiplier: 4.4,
			Sessions:             1,
			VideosPerSession:     3,
			WatchScale:           0.05,
			ProbeInterval:        time.Minute,
			Seed:                 1,
		},
	}
}

// SmokeScaleSweep is the seconds-long variant for unit tests, CI and
// bench-short: same shape, toy populations.
func SmokeScaleSweep() ScaleSweep {
	return ScaleSweep{
		Sizes: []int{200, 400, 800},
		Scale: Scale{
			TraceChannels:    60,
			Categories:       8,
			Sessions:         1,
			VideosPerSession: 3,
			WatchScale:       0.05,
			ProbeInterval:    time.Minute,
			Seed:             1,
		},
	}
}

// progressf sends one formatted progress line to a sweep's listener, if
// it has one.
func progressf(listener func(msg string), format string, args ...any) {
	if listener != nil {
		listener(fmt.Sprintf(format, args...))
	}
}

// ScaleEnv carries a point's environmental measurements — real heap and
// wall clock. They are recorded in BENCH_scale.json next to the
// deterministic fields but never enter the figure tables, so same-seed
// sweeps render identical tables.
type ScaleEnv struct {
	// HeapHighWaterBytes is the process's heap high-water during the run,
	// not the protocol's own: Scale.runJobs runs up to GOMAXPROCS
	// protocol jobs at once, and each counts them all.
	HeapHighWaterBytes uint64  `json:"heapHighWaterBytes"`
	WallMs             float64 `json:"wallMs"`
}

// ScalePoint is one (population, protocol) cell of the sweep. Every field
// except Env is deterministic under a fixed seed.
type ScalePoint struct {
	Users    int    `json:"users"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Requests int64  `json:"requests"`
	// Hit rates by source, as fractions of all requests.
	CacheHitRate  float64 `json:"cacheHitRate"`
	PeerHitRate   float64 `json:"peerHitRate"`
	ServerHitRate float64 `json:"serverHitRate"`
	// Per-node overhead: query messages, maintenance probe messages
	// (run total and per probe round — the round rate is the Fig. 15
	// y-axis, independent of how long the run happened to last), and the
	// mean link count right after a session's last video.
	MessagesPerNode    float64 `json:"messagesPerNode"`
	ProbesPerNode      float64 `json:"probesPerNode"`
	ProbesPerNodeRound float64 `json:"probesPerNodeRound"`
	MeanLinks          float64 `json:"meanLinks"`
	// Memory accounting from the dense trace layout.
	TraceBytes   uint64  `json:"traceBytes"`
	BytesPerUser float64 `json:"bytesPerUser"`

	Env ScaleEnv `json:"env"`
}

// sweepPoint reduces one run result to its sweep cell. probeInterval is
// the run's maintenance period, used to convert the probe total into a
// per-node per-round rate.
func sweepPoint(users int, protocol string, seed int64, probeInterval time.Duration, res *exp.Result, wall time.Duration) ScalePoint {
	p := ScalePoint{
		Users:        users,
		Protocol:     protocol,
		Seed:         seed,
		Requests:     res.Requests,
		TraceBytes:   res.Mem.TraceBytes,
		BytesPerUser: res.Mem.BytesPerUser,
		Env: ScaleEnv{
			HeapHighWaterBytes: res.Mem.HeapHighWater,
			WallMs:             float64(wall.Nanoseconds()) / 1e6,
		},
	}
	if res.Requests > 0 {
		p.CacheHitRate = float64(res.CacheHits.Value()) / float64(res.Requests)
		p.PeerHitRate = float64(res.PeerHits.Value()) / float64(res.Requests)
		p.ServerHitRate = float64(res.ServerHits.Value()) / float64(res.Requests)
	}
	if users > 0 {
		p.MessagesPerNode = float64(res.Messages.Value()) / float64(users)
		p.ProbesPerNode = float64(res.ProbeMessages.Value()) / float64(users)
		if rounds := float64(res.SimulatedTime) / float64(probeInterval); rounds > 0 {
			p.ProbesPerNodeRound = p.ProbesPerNode / rounds
		}
	}
	if k := len(res.LinksByVideoIndex); k > 0 {
		p.MeanLinks = res.LinksByVideoIndex[k-1].Mean()
	}
	return p
}

// RunScaleSweep executes the sweep and returns the overhead-vs-N,
// hit-rate-vs-N and memory curves with the raw per-cell points. Points run
// strictly one population at a time — the sweep's live heap is bounded by
// its largest point, not the sum — while the protocols inside a point
// share one read-only trace (Scale.runJobs). The tables and the points'
// deterministic fields are bit-identical run over run.
func RunScaleSweep(sw ScaleSweep) (*Report, error) {
	if len(sw.Sizes) == 0 {
		return nil, fmt.Errorf("scale sweep: no sizes")
	}
	points := make([]ScalePoint, 0, len(sw.Sizes)*len(protoOrder))
	for _, n := range sw.Sizes {
		pts, err := sw.runPoint(n)
		if err != nil {
			return nil, fmt.Errorf("scale %d: %w", n, err)
		}
		points = append(points, pts...)
	}
	return report(points, scaleOverheadTable(points), scaleHitRateTable(points), scaleMemoryTable(points)), nil
}

// runPoint builds one population's trace and runs every protocol over it,
// returning the cells in protoOrder.
func (sw ScaleSweep) runPoint(users int) ([]ScalePoint, error) {
	s := sw.Scale
	s.TraceUsers = users
	begin := time.Now()
	tr, err := s.BuildTrace()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tb := tr.Bytes()
	progressf(sw.Progress, "N=%d: trace %d channels / %d videos, %d bytes (%.1f/user), built in %v",
		users, len(tr.Channels), len(tr.Videos), tb, float64(tb)/float64(users),
		time.Since(begin).Round(time.Millisecond))

	jobs := protocolJobs(protoOrder)
	// The server's capacity keeps Table I's per-capita ratio (50 Mbps
	// per 10k users) as the population grows. With a fixed uplink the
	// queue at the server stretches the virtual timeline linearly in N,
	// and every per-run total inflates with it — the sweep would measure
	// server meltdown, not overlay scale. Server offload at fixed N is
	// Fig. 16's experiment, not this one's.
	if users > 10_000 {
		for i := range jobs {
			jobs[i].net.ServerUplinkBps = jobs[i].net.ServerUplinkBps * int64(users) / 10_000
		}
	}
	probeInterval := s.expConfig().ProbeInterval
	pts := make([]ScalePoint, len(jobs))
	_, err = s.runJobs(tr, jobs, func(i int, res *exp.Result, wall time.Duration, inFlight int) {
		pts[i] = sweepPoint(users, protoOrder[i], s.Seed, probeInterval, res, wall)
		progressf(sw.Progress, "N=%d %s: %d requests, peer %.3f, probes/node %.2f, heap %.1f MB (process-wide, jobs in flight: %d), %v",
			users, protoOrder[i], pts[i].Requests, pts[i].PeerHitRate, pts[i].ProbesPerNode,
			float64(pts[i].Env.HeapHighWaterBytes)/1e6, inFlight, wall.Round(time.Millisecond))
	})
	return pts, err
}

// scaleRows walks the sweep's points one population at a time; the runner
// emits every cell in protoOrder, so each stride is (PA-VoD, SocialTube,
// NetTube) at one N.
func scaleRows(points []ScalePoint, row func(pv, st, nt ScalePoint)) {
	for i := 0; i+2 < len(points); i += len(protoOrder) {
		row(points[i], points[i+1], points[i+2])
	}
}

func scaleOverheadTable(points []ScalePoint) *Table {
	t := NewTable(
		"Scale sweep — per-node maintenance vs N (probe msgs/node/round; links after last video)",
		"users", "st.probes", "nt.probes", "st.links", "nt.links", "st.msgs", "nt.msgs")
	scaleRows(points, func(_, st, nt ScalePoint) {
		t.AddRow(st.Users, st.ProbesPerNodeRound, nt.ProbesPerNodeRound, st.MeanLinks, nt.MeanLinks,
			st.MessagesPerNode, nt.MessagesPerNode)
	})
	return t
}

func scaleHitRateTable(points []ScalePoint) *Table {
	t := NewTable("Scale sweep — hit rates vs N",
		"users", "st.peer", "nt.peer", "pv.peer", "st.server", "nt.server", "pv.server")
	scaleRows(points, func(pv, st, nt ScalePoint) {
		t.AddRow(st.Users, st.PeerHitRate, nt.PeerHitRate, pv.PeerHitRate,
			st.ServerHitRate, nt.ServerHitRate, pv.ServerHitRate)
	})
	return t
}

func scaleMemoryTable(points []ScalePoint) *Table {
	t := NewTable("Scale sweep — dense trace memory vs N",
		"users", "traceBytes", "bytesPerUser")
	scaleRows(points, func(_, st, _ ScalePoint) {
		t.AddRow(st.Users, st.TraceBytes, st.BytesPerUser)
	})
	return t
}
