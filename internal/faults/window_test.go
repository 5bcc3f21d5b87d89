package faults

import (
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
)

// randomWindowPlan draws a valid plan that uses every window kind. Bursts,
// chaos windows and partitions are laid end to end in a shuffled order, so
// two of a kind often touch; outages are placed independently, so they
// overlap. Times sit on a one-second grid, so events often share an
// instant.
func randomWindowPlan(seed int64) *Plan {
	g := dist.NewRNG(seed)
	tick := func(n int) time.Duration { return time.Duration(g.Intn(n)) * time.Second }
	laid := func() []span {
		var s []span
		at := tick(3)
		for range g.Intn(4) {
			d := tick(4) + time.Second
			s = append(s, span{at, at + d})
			at += d + tick(3)
		}
		g.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	p := &Plan{Seed: seed, DetectDelay: time.Second,
		Waves: []ChurnWave{{At: tick(10), Spread: time.Second, Count: 3, DownFor: tick(4)}}}
	for _, s := range laid() {
		p.Bursts = append(p.Bursts, LinkBurst{At: s.at, Duration: s.end - s.at,
			LatencyFactor: float64(g.Intn(4)) / 2, LossP: g.Float64()})
	}
	for _, s := range laid() {
		c := ChaosBurst{At: s.at, Duration: s.end - s.at,
			CorruptP: g.Float64() / 4, TruncateP: g.Float64() / 4, DuplicateP: g.Float64()/4 + 0.01}
		if g.Intn(2) == 0 {
			c.StallP, c.StallFor = g.Float64()/4, time.Millisecond
		}
		p.Chaos = append(p.Chaos, c)
	}
	for _, s := range laid() {
		p.Partitions = append(p.Partitions, Partition{At: s.at, Duration: s.end - s.at, Groups: 2 + g.Intn(3)})
	}
	for range g.Intn(5) {
		p.Outages = append(p.Outages, Outage{At: tick(12), Duration: tick(6) + time.Second, Shard: g.Intn(3)})
	}
	return p
}

// referenceWindow is the brute-force Window at instant t: every window of
// the plan whose half-open interval [At, At+Duration) holds t is open.
func referenceWindow(p *Plan, t time.Duration) Window {
	var w Window
	open := func(at, d time.Duration) bool { return at <= t && t < at+d }
	for _, b := range p.Bursts {
		if open(b.At, b.Duration) {
			w.bursts++
			w.latencyFactor, w.lossP = b.LatencyFactor, b.LossP
			if w.latencyFactor == 0 {
				w.latencyFactor = 1
			}
		}
	}
	for _, c := range p.Chaos {
		if open(c.At, c.Duration) {
			w.chaoses++
			w.chaos = c
		}
	}
	for _, pt := range p.Partitions {
		if open(pt.At, pt.Duration) {
			w.partitions++
			w.groups = pt.Groups
		}
	}
	for _, o := range p.Outages {
		if open(o.At, o.Duration) {
			w.outages++
			w.outageUntil = max(w.outageUntil, o.At+o.Duration)
		}
	}
	return w
}

// TestWindowMatchesReference folds 256 random plans' schedules through
// Window.Apply and, at every event boundary, compares the fold with the
// windows the plan's own intervals say are open: latency factor, loss,
// chaos mix, partition groups, and which outages are open until when.
// The read methods must then give the reference's numbers.
func TestWindowMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 256; seed++ {
		p := randomWindowPlan(seed)
		sched, err := p.Compile(10)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var w Window
		for i, ev := range sched.Events {
			w.Apply(ev)
			if i+1 < len(sched.Events) && sched.Events[i+1].At == ev.At {
				continue // not a boundary: more events share this instant
			}
			ref := referenceWindow(p, ev.At)
			if w != ref {
				t.Fatalf("seed %d at %v: fold %+v, reference %+v", seed, ev.At, w, ref)
			}
			const d = 40 * time.Millisecond
			if f := ref.latencyFactor; f > 0 && w.ScaleLatency(d) != time.Duration(float64(d)*f) {
				t.Fatalf("seed %d at %v: latency %v under factor %g", seed, ev.At, w.ScaleLatency(d), f)
			}
			if got, want := w.Loss(0.2), 0.2+ref.lossP-0.2*ref.lossP; got-want > 1e-15 || want-got > 1e-15 {
				t.Fatalf("seed %d at %v: loss %v, want %v", seed, ev.At, got, want)
			}
			mix, chaos := w.Chaos()
			if chaos != (ref.chaoses > 0) || mix != ref.chaos ||
				w.ChaosLoss() != ref.chaos.CorruptP+ref.chaos.TruncateP+ref.chaos.StallP {
				t.Fatalf("seed %d at %v: chaos %+v/%v, want %+v", seed, ev.At, mix, chaos, ref.chaos)
			}
			for a := -1; a < 7; a++ {
				if cut := ref.groups > 0 && max(a, 0)%ref.groups != 3%ref.groups; w.Severed(a, 3) != cut {
					t.Fatalf("seed %d at %v: severed(%d, 3) = %v with %d groups", seed, ev.At, a, !cut, ref.groups)
				}
			}
			if w.OutageUntil() != ref.outageUntil || w.Open() != (ref != Window{}) {
				t.Fatalf("seed %d at %v: outage until %v, open %v", seed, ev.At, w.OutageUntil(), w.Open())
			}
		}
		if w != (Window{}) {
			t.Fatalf("seed %d: windows left open after the schedule: %+v", seed, w)
		}
	}
}
