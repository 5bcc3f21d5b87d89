// Open-loop load engine: arrivals come from a rate profile
// (internal/load) instead of per-user closed-loop session chains, so
// the offered rate no longer tracks the system's service rate and
// overload — server queueing, shedding, tail startup delay — becomes
// measurable. Each arrival claims an idle node, runs one session, and
// a stream self-clocks: every arrival event schedules the next one, so
// the event queue never holds more than one pending arrival per stream.
package exp

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// LoadInfo aggregates the open-loop engine's arrival and admission
// accounting of an identity-partition run (Options.Load).
type LoadInfo struct {
	// Offered counts profile arrivals; FlashOffered the subset that
	// belonged to a flash crowd.
	Offered      int64 `json:"offered"`
	FlashOffered int64 `json:"flashOffered"`
	// Busy counts arrivals dropped because every node was already
	// mid-session — the population bound, not the server's.
	Busy int64 `json:"busy"`
	// ServerAdmitted / ServerShed mirror the obs counters: requests
	// the bounded admission queue served vs turned away.
	ServerAdmitted int64 `json:"serverAdmitted"`
	ServerShed     int64 `json:"serverShed"`
	// QueuePeak is the admission queue's high-water occupancy.
	QueuePeak int `json:"queuePeak"`
}

// installLoad switches the runner to open-loop arrivals from the
// profile. Callers must not have seeded closed-loop sessions.
func (r *runner) installLoad(p *load.Profile) error {
	if f := p.Flash; f != nil {
		if f.Channel < 0 || f.Channel >= len(r.tr.Channels) {
			return fmt.Errorf("%w: flash channel %d outside [0, %d)", dist.ErrBadParameter, f.Channel, len(r.tr.Channels))
		}
		if len(r.tr.Channels[f.Channel].Videos) == 0 {
			return fmt.Errorf("%w: flash channel %d has no videos", dist.ErrBadParameter, f.Channel)
		}
		r.flashChannel = f.Channel
	}
	gen, err := load.NewGen(p)
	if err != nil {
		return err
	}
	// A dedicated stream: arrival decisions must not perturb the main
	// RNG's draws.
	r.loadG = dist.NewRNG(r.cfg.Seed*7919 + 0x10ad)
	r.res.Load = &LoadInfo{}
	r.arrivals = gen
	r.pump()
	return nil
}

// pump schedules the stream's next arrival, if it has one. The stream
// self-clocks on onArrive, which fires the pending arrival after pumping
// the one after it.
func (r *runner) pump() {
	var ok bool
	if r.arrival, ok = r.arrivals.Next(); ok {
		r.streams++
		r.engine.Schedule(r.arrival.At, r.onArrive, 0)
	}
}

// applyArrival turns one offered arrival into a session on an idle
// node: flash arrivals request the viral video, others sample a
// regular session plan for the claimed user.
func (r *runner) applyArrival(flash bool, now time.Duration) {
	info := r.res.Load
	info.Offered++
	if flash {
		info.FlashOffered++
	}
	if tl := r.res.Timeline; tl != nil {
		tl.at(now).Offered++
	}
	node, ok := r.pickIdleNode()
	if !ok {
		info.Busy++
		return
	}
	var plan vod.SessionPlan
	if flash {
		// The viral video: the flash channel's top-ranked one.
		plan = vod.SessionPlan{Videos: []trace.VideoID{r.tr.Channels[r.flashChannel].Videos[0]}}
	} else {
		plan = r.picker.PlanSession(r.loadG, &r.tr.Users[node], r.cfg.VideosPerSession, r.cfg.MeanOffTime)
	}
	r.begin(node, plan, now)
}

// pickIdleNode claims a node that is neither online nor crashed,
// scanning from a seeded random start so claims spread uniformly.
func (r *runner) pickIdleNode() (int, bool) {
	n := len(r.online)
	start := r.loadG.Intn(n)
	for i := 0; i < n; i++ {
		if node := (start + i) % n; !r.online[node] && !r.crashed[node] {
			return node, true
		}
	}
	return 0, false
}
