package faults

import "time"

// Window is the state of a run's open fault windows: the fold, through
// Apply, of every burst, outage, chaos and partition event replayed so
// far. Both substrates hold one and read network conditions from it, so a
// plan degrades the simulator and the emulator by the same arithmetic.
// The zero value is a healthy network; churn events leave it alone.
//
// Bursts, chaos windows and partitions never overlap their own kind
// (Validate refuses it), but two of a kind may touch: one closes at the
// instant the next opens, in either event order. A per-kind count keeps
// the newer window's parameters through the older one's end. Outages may
// overlap, since they can target different shards or replicas.
type Window struct {
	bursts, chaoses, partitions, outages int

	latencyFactor float64 // the open burst's factor; 0 when none
	lossP         float64 // the open burst's loss
	chaos         ChaosBurst
	groups        int           // the open partition's side count
	outageUntil   time.Duration // the latest close among the open outages
}

// Apply folds one compiled event into the window. It is the one switch
// over Kind that touches network conditions.
func (w *Window) Apply(ev Event) {
	switch ev.Kind {
	case KindBurstStart:
		w.bursts++
		w.latencyFactor, w.lossP = ev.LatencyFactor, ev.LossP
	case KindBurstEnd:
		if w.bursts--; w.bursts == 0 {
			w.latencyFactor, w.lossP = 0, 0
		}
	case KindChaosStart:
		w.chaoses++
		w.chaos = ChaosBurst{At: ev.At, Duration: ev.Until - ev.At,
			CorruptP: ev.CorruptP, TruncateP: ev.TruncateP,
			DuplicateP: ev.DuplicateP, StallP: ev.StallP, StallFor: ev.StallFor}
	case KindChaosEnd:
		if w.chaoses--; w.chaoses == 0 {
			w.chaos = ChaosBurst{}
		}
	case KindPartitionStart:
		w.partitions++
		w.groups = ev.Groups
	case KindPartitionEnd:
		if w.partitions--; w.partitions == 0 {
			w.groups = 0
		}
	case KindOutageStart:
		w.outages++
		w.outageUntil = max(w.outageUntil, ev.Until)
	case KindOutageEnd:
		if w.outages--; w.outages == 0 {
			w.outageUntil = 0
		}
	}
}

// Open reports whether any window is open.
func (w *Window) Open() bool {
	return w.bursts+w.chaoses+w.partitions+w.outages > 0
}

// ScaleLatency scales a link latency by the open burst's factor: above 1
// degrades, in (0,1) models a recovery window. No burst, or a factor that
// is not positive, leaves it unchanged.
func (w *Window) ScaleLatency(d time.Duration) time.Duration {
	if w.latencyFactor != 1 && w.latencyFactor > 0 {
		return time.Duration(float64(d) * w.latencyFactor)
	}
	return d
}

// Loss combines a baseline loss probability p with the open burst's loss
// q as independent losses: a message survives only if it escapes both,
// so it is lost with probability p + q − pq. It returns p exactly when no
// burst is open, and q exactly when p is 0.
func (w *Window) Loss(p float64) float64 {
	return p + (w.lossP - p*w.lossP)
}

// Chaos returns the open chaos window, or false when none is open.
func (w *Window) Chaos() (ChaosBurst, bool) {
	return w.chaos, w.chaoses > 0
}

// ChaosLoss is the share of frames the open chaos window destroys:
// corrupted, truncated and stalled ones. A duplicated frame is harmless.
// 0 when no chaos window is open.
func (w *Window) ChaosLoss() float64 {
	return w.chaos.CorruptP + w.chaos.TruncateP + w.chaos.StallP
}

// Severed reports whether a message between nodes a and b crosses the
// open partition's cut: node n lands on side n % Groups. Negative ids (the
// tracker sentinel -1, an unknown sender) fold to side 0, so the
// tracker is never cut off from the id-0 side by accident.
func (w *Window) Severed(a, b int) bool {
	if w.groups == 0 {
		return false
	}
	return max(a, 0)%w.groups != max(b, 0)%w.groups
}

// OutageUntil is when the last of the open outages closes; 0 when none is
// open.
func (w *Window) OutageUntil() time.Duration { return w.outageUntil }
