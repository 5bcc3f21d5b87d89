package exp

import (
	"time"

	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/vod"
)

// Timeline is a run's per-window telemetry (Options.TimelineWindow):
// Windows[i] covers simulated time [i*Width, (i+1)*Width). Windows are
// keyed by the engine's virtual clock, never wall-clock, so same-seed
// timelines are byte-identical for any host speed. Only the identity
// partition records one.
type Timeline struct {
	Width   time.Duration
	Windows []Window
}

// Window is one window's telemetry. Requests are filed under the window
// of their issue time, arrivals under their arrival time.
type Window struct {
	// Requests issued, and where the served ones came from.
	Requests, CacheHits, PeerHits, ServerHits int64
	// StartupMs holds the startup delays of the peer- and server-served
	// requests (empty when the window saw none).
	StartupMs obs.Hist
	// ServerBytes is the server load the window's requests caused;
	// BreakerOpens the circuit-breaker opens filed into it.
	ServerBytes, BreakerOpens int64
	// Offered counts open-loop arrivals; ServerShed the requests the
	// bounded server queue turned away. Both stay zero in closed-loop,
	// unbounded runs.
	Offered, ServerShed int64
}

// at returns the window covering simulated time t, growing the timeline
// to reach it.
func (tl *Timeline) at(t time.Duration) *Window {
	i := int(max(t, 0) / tl.Width)
	for len(tl.Windows) <= i {
		tl.Windows = append(tl.Windows, Window{})
	}
	return &tl.Windows[i]
}

// recordWindow files one completed request into the timeline window of
// its *issue* time (reqAt): the request belongs to the load of the window
// that produced it.
func (r *runner) recordWindow(res vod.RequestResult, reqAt, ready time.Duration, servedBytes int64, shed bool) {
	w := r.res.Timeline.at(reqAt)
	w.Requests++
	if opens := r.ctr.BreakerOpens; opens != r.filedOpens {
		w.BreakerOpens += int64(opens - r.filedOpens)
		r.filedOpens = opens
	}
	switch {
	case shed:
		w.ServerShed++
		return
	case res.Source == vod.SourceCache:
		w.CacheHits++
		return
	case res.Source == vod.SourcePeer:
		w.PeerHits++
	default:
		w.ServerHits++
	}
	w.StartupMs.Add(float64(ready-reqAt) / float64(time.Millisecond))
	w.ServerBytes += servedBytes
}
