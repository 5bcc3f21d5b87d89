// Package load turns the static trace into open-loop offered traffic.
//
// The closed-loop experiment runner replays session arrivals from the
// trace: a user only issues its next request once the previous one
// finished, so the offered rate silently tracks the system's service
// rate and overload can never be observed. This package generates a
// *rate-shaped* arrival stream instead — requests per second as a
// function of simulated time, independent of completions — in the
// spirit of the invitro trace synthesizer's normal / RPS-sweep / burst
// modes, plus a diurnal wave and a viral-video flash crowd.
//
// Arrivals are drawn from a nonhomogeneous Poisson process via
// thinning: candidate interarrivals are exponential at the profile's
// peak rate and each candidate at time t is accepted with probability
// rate(t)/peak. One seeded RNG drives the whole stream in time order,
// so the sequence is deterministic for a given Profile.
package load

import (
	"fmt"
	"math"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
)

// Mode selects the shape of the offered-rate curve.
type Mode string

const (
	// Steady offers a constant RPS for the whole duration.
	Steady Mode = "steady"
	// Ramp grows linearly from RPS to EndRPS over the duration.
	Ramp Mode = "ramp"
	// Sweep steps from RPS to EndRPS in Steps flat plateaus.
	Sweep Mode = "sweep"
	// Burst offers RPS except for a [BurstAt, BurstAt+BurstFor)
	// window at BurstRPS.
	Burst Mode = "burst"
	// Diurnal modulates RPS with a sine wave: RPS·(1+Swing·sin(2πt/Period)).
	Diurnal Mode = "diurnal"
)

// FlashCrowd slams one channel with a sudden demand spike: during
// [At, At+For) an extra DefaultFlashShare·(DefaultFlashMultiplier−1)·rate(t)
// arrivals per second all request the channel's most popular video. The
// flash window roughly doubles total traffic while multiplying that one
// video's demand ~100×.
type FlashCrowd struct {
	// Channel is the channel whose top-ranked video goes viral.
	Channel int `json:"channel"`
	// At is when the flash crowd starts, relative to run start.
	At time.Duration `json:"at"`
	// For is how long the flash crowd lasts.
	For time.Duration `json:"for"`
}

// Flash-crowd intensity: the viral video would organically attract
// DefaultFlashShare of the baseline traffic, and the crowd multiplies that
// demand by DefaultFlashMultiplier.
const (
	DefaultFlashMultiplier = 100.0
	DefaultFlashShare      = 0.01
)

// Profile describes an open-loop offered-load curve. RPS fields are
// requests per second of simulated time.
type Profile struct {
	Mode Mode  `json:"mode"`
	Seed int64 `json:"seed"`

	// RPS is the base offered rate (start rate for ramp/sweep).
	RPS float64 `json:"rps"`
	// EndRPS is the final rate for ramp and sweep modes.
	EndRPS float64 `json:"endRPS,omitempty"`
	// Steps is the number of plateaus for sweep mode (≥ 2).
	Steps int `json:"steps,omitempty"`

	// Duration bounds the stream: no arrivals at t ≥ Duration.
	Duration time.Duration `json:"duration"`

	// Burst-mode window.
	BurstRPS float64       `json:"burstRPS,omitempty"`
	BurstAt  time.Duration `json:"burstAt,omitempty"`
	BurstFor time.Duration `json:"burstFor,omitempty"`

	// Diurnal-mode wave.
	Period time.Duration `json:"period,omitempty"`
	Swing  float64       `json:"swing,omitempty"`

	// Flash, if set, adds a flash crowd on top of the base curve.
	Flash *FlashCrowd `json:"flash,omitempty"`
}

// Validate checks the profile for internal consistency.
func (p *Profile) Validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("load: %w: duration %v must be positive", dist.ErrBadParameter, p.Duration)
	}
	if p.RPS <= 0 {
		return fmt.Errorf("load: %w: rps %v must be positive", dist.ErrBadParameter, p.RPS)
	}
	switch p.Mode {
	case Steady:
	case Ramp:
		if p.EndRPS < 0 {
			return fmt.Errorf("load: %w: ramp endRPS %v must be >= 0", dist.ErrBadParameter, p.EndRPS)
		}
	case Sweep:
		if p.Steps < 2 {
			return fmt.Errorf("load: %w: sweep needs steps >= 2, got %d", dist.ErrBadParameter, p.Steps)
		}
		if p.EndRPS < 0 {
			return fmt.Errorf("load: %w: sweep endRPS %v must be >= 0", dist.ErrBadParameter, p.EndRPS)
		}
	case Burst:
		if p.BurstRPS <= 0 {
			return fmt.Errorf("load: %w: burstRPS %v must be positive", dist.ErrBadParameter, p.BurstRPS)
		}
		if p.BurstFor <= 0 {
			return fmt.Errorf("load: %w: burstFor %v must be positive", dist.ErrBadParameter, p.BurstFor)
		}
		if p.BurstAt < 0 || p.BurstAt >= p.Duration {
			return fmt.Errorf("load: %w: burstAt %v outside [0, %v)", dist.ErrBadParameter, p.BurstAt, p.Duration)
		}
	case Diurnal:
		if p.Period <= 0 {
			return fmt.Errorf("load: %w: diurnal period %v must be positive", dist.ErrBadParameter, p.Period)
		}
		if p.Swing < 0 || p.Swing >= 1 {
			return fmt.Errorf("load: %w: diurnal swing %v outside [0, 1)", dist.ErrBadParameter, p.Swing)
		}
	default:
		return fmt.Errorf("load: %w: unknown mode %q", dist.ErrBadParameter, p.Mode)
	}
	if f := p.Flash; f != nil {
		if f.Channel < 0 {
			return fmt.Errorf("load: %w: flash channel %d must be >= 0", dist.ErrBadParameter, f.Channel)
		}
		if f.For <= 0 {
			return fmt.Errorf("load: %w: flash window %v must be positive", dist.ErrBadParameter, f.For)
		}
		if f.At < 0 || f.At >= p.Duration {
			return fmt.Errorf("load: %w: flash start %v outside [0, %v)", dist.ErrBadParameter, f.At, p.Duration)
		}
	}
	return nil
}

// Rate returns the base offered rate at time t (flash excluded).
func (p *Profile) Rate(t time.Duration) float64 {
	if t < 0 || t >= p.Duration {
		return 0
	}
	switch p.Mode {
	case Ramp:
		frac := float64(t) / float64(p.Duration)
		return p.RPS + (p.EndRPS-p.RPS)*frac
	case Sweep:
		step := int(float64(t) / float64(p.Duration) * float64(p.Steps))
		if step >= p.Steps {
			step = p.Steps - 1
		}
		return p.RPS + (p.EndRPS-p.RPS)*float64(step)/float64(p.Steps-1)
	case Burst:
		if t >= p.BurstAt && t < p.BurstAt+p.BurstFor {
			return p.BurstRPS
		}
		return p.RPS
	case Diurnal:
		return p.RPS * (1 + p.Swing*math.Sin(2*math.Pi*float64(t)/float64(p.Period)))
	default: // Steady
		return p.RPS
	}
}

// flashRate returns the extra arrivals/s the flash crowd adds at t.
func (p *Profile) flashRate(t time.Duration) float64 {
	f := p.Flash
	if f == nil || t < f.At || t >= f.At+f.For {
		return 0
	}
	return p.Rate(t) * DefaultFlashShare * (DefaultFlashMultiplier - 1)
}

// Peak returns an upper bound on the total instantaneous rate (base +
// flash), used as the thinning envelope.
func (p *Profile) Peak() float64 {
	base := p.RPS
	switch p.Mode {
	case Ramp, Sweep:
		base = math.Max(p.RPS, p.EndRPS)
	case Burst:
		base = math.Max(p.RPS, p.BurstRPS)
	case Diurnal:
		base = p.RPS * (1 + p.Swing)
	}
	if p.Flash != nil {
		base *= 1 + DefaultFlashShare*(DefaultFlashMultiplier-1)
	}
	return base
}

// Arrival is one open-loop request arrival.
type Arrival struct {
	// At is the arrival time relative to the stream's start.
	At time.Duration
	// Flash marks arrivals belonging to the flash crowd: they
	// request the viral video instead of a trace-sampled session.
	Flash bool
}

// Gen produces the profile's arrival stream in time order.
type Gen struct {
	p    Profile
	g    *dist.RNG
	peak float64
	now  time.Duration
	done bool
}

// NewGen validates the profile and returns its arrival generator.
func NewGen(p *Profile) (*Gen, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Gen{
		p:    *p,
		g:    dist.NewRNG(p.Seed),
		peak: p.Peak(),
	}, nil
}

// Next returns the next arrival, or ok=false once the stream is past
// the profile's duration.
func (g *Gen) Next() (Arrival, bool) {
	if g.done {
		return Arrival{}, false
	}
	meanGap := float64(time.Second) / g.peak
	for {
		g.now += time.Duration(dist.Exponential(g.g, meanGap))
		if g.now >= g.p.Duration {
			g.done = true
			return Arrival{}, false
		}
		base := g.p.Rate(g.now)
		flash := g.p.flashRate(g.now)
		total := base + flash
		if total <= 0 {
			continue
		}
		// Thinning: accept with probability rate/peak, then
		// attribute the accepted arrival to the flash crowd in
		// proportion to its share of the instantaneous rate.
		u := g.g.Float64() * g.peak
		if u >= total {
			continue
		}
		return Arrival{At: g.now, Flash: u >= base}, true
	}
}

// Done reports whether the stream is exhausted.
func (g *Gen) Done() bool { return g.done }
