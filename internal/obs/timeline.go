package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// Timeline is a windowed telemetry recorder keyed by *simulated* time:
// every data point is filed under window index at/window, where at is
// the engine's virtual clock. Wall-clock time never enters a Timeline,
// so same-seed runs produce byte-identical timelines regardless of host
// speed or worker count.
//
// Series are registered up front (Counter, Hist) and addressed
// through the returned *Series handles; the hot path (Add / Observe) is
// a window-index computation plus a slice element update, with amortized
// slice growth as the simulation clock advances — no per-observation
// allocation.
//
// Timelines merge (Merge) when both sides share the same window width
// and the same series registered in the same order: counters add
// element-wise, histogram windows fold via Hist.Merge. The sharded
// engine records one Timeline per community cell and merges them in
// ascending cell order, which keeps merged timelines byte-identical for
// any worker count (merging is commutative here, but the fixed order
// makes that property checkable byte-for-byte).
//
// A Timeline is single-writer, like the engines that feed it.
type Timeline struct {
	window time.Duration
	series []*Series
}

// SeriesKind distinguishes how a Series aggregates within a window.
type SeriesKind string

// Series kinds.
const (
	// SeriesCounter sums integer deltas per window.
	SeriesCounter SeriesKind = "counter"
	// SeriesHist keeps a per-window Hist of observations.
	SeriesHist SeriesKind = "hist"
)

// Series is one named per-window data stream inside a Timeline.
type Series struct {
	name   string
	kind   SeriesKind
	window time.Duration
	values []int64 // counter windows
	hists  []*Hist // hist windows (lazily allocated per window)
}

// NewTimeline returns a timeline with the given window width. window
// must be positive.
func NewTimeline(window time.Duration) *Timeline {
	if window <= 0 {
		panic("obs: timeline window must be positive")
	}
	return &Timeline{window: window}
}

// Window returns the window width.
func (t *Timeline) Window() time.Duration { return t.window }

// Counter registers (or returns the existing) counter series.
func (t *Timeline) Counter(name string) *Series { return t.register(name, SeriesCounter) }

// Hist registers (or returns the existing) histogram series.
func (t *Timeline) Hist(name string) *Series { return t.register(name, SeriesHist) }

func (t *Timeline) register(name string, kind SeriesKind) *Series {
	for _, s := range t.series {
		if s.name == name {
			if s.kind != kind {
				panic(fmt.Sprintf("obs: timeline series %q registered as %s and %s", name, s.kind, kind))
			}
			return s
		}
	}
	s := &Series{name: name, kind: kind, window: t.window}
	t.series = append(t.series, s)
	return s
}

// Series returns the registered series by name, or nil.
func (t *Timeline) Series(name string) *Series {
	for _, s := range t.series {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Windows returns the number of windows the timeline spans: the highest
// window index any series has touched, plus one.
func (t *Timeline) Windows() int {
	n := 0
	for _, s := range t.series {
		if len(s.values) > n {
			n = len(s.values)
		}
		if len(s.hists) > n {
			n = len(s.hists)
		}
	}
	return n
}

// windowIndex maps a simulated timestamp to its window.
func (s *Series) windowIndex(at time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(at / s.window)
}

// Add folds an integer delta into the window covering simulated time at.
// Valid for counter series.
func (s *Series) Add(at time.Duration, n int64) {
	idx := s.windowIndex(at)
	for len(s.values) <= idx {
		s.values = append(s.values, 0)
	}
	s.values[idx] += n
}

// Observe records a value into the histogram window covering simulated
// time at. Valid for hist series.
func (s *Series) Observe(at time.Duration, v float64) {
	idx := s.windowIndex(at)
	for len(s.hists) <= idx {
		s.hists = append(s.hists, nil)
	}
	if s.hists[idx] == nil {
		s.hists[idx] = &Hist{}
	}
	s.hists[idx].Add(v)
}

// Value returns the counter total for window idx (0 beyond the
// recorded range).
func (s *Series) Value(idx int) int64 {
	if idx < 0 || idx >= len(s.values) {
		return 0
	}
	return s.values[idx]
}

// HistAt returns the histogram for window idx, or nil if that window
// recorded nothing.
func (s *Series) HistAt(idx int) *Hist {
	if idx < 0 || idx >= len(s.hists) {
		return nil
	}
	return s.hists[idx]
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Kind returns the series kind.
func (s *Series) Kind() SeriesKind { return s.kind }

// Merge folds other into t. Both timelines must have the same window
// width and the same series (name and kind) registered in the same
// order; anything else is a programming error and is reported.
func (t *Timeline) Merge(other *Timeline) error {
	if other == nil {
		return nil
	}
	if t.window != other.window {
		return fmt.Errorf("obs: merging timelines with windows %v and %v", t.window, other.window)
	}
	if len(t.series) != len(other.series) {
		return fmt.Errorf("obs: merging timelines with %d and %d series", len(t.series), len(other.series))
	}
	for i, s := range t.series {
		o := other.series[i]
		if s.name != o.name || s.kind != o.kind {
			return fmt.Errorf("obs: timeline series %d mismatch: %s/%s vs %s/%s", i, s.name, s.kind, o.name, o.kind)
		}
		for len(s.values) < len(o.values) {
			s.values = append(s.values, 0)
		}
		for idx, v := range o.values {
			s.values[idx] += v
		}
		for len(s.hists) < len(o.hists) {
			s.hists = append(s.hists, nil)
		}
		for idx, h := range o.hists {
			if h == nil {
				continue
			}
			if s.hists[idx] == nil {
				s.hists[idx] = &Hist{}
			}
			s.hists[idx].Merge(h)
		}
	}
	return nil
}

// timelineSeriesJSON pads every series to the timeline's full window
// count so rows align column-wise across series.
type timelineSeriesJSON struct {
	Name    string         `json:"name"`
	Kind    SeriesKind     `json:"kind"`
	Values  []int64        `json:"values,omitempty"`
	Windows []*HistSummary `json:"windows,omitempty"`
}

type timelineJSON struct {
	WindowMs int64                `json:"windowMs"`
	Windows  int                  `json:"windows"`
	Series   []timelineSeriesJSON `json:"series"`
}

// MarshalJSON emits the timeline with series in registration order and
// every series padded to the full window count — deterministic bytes for
// a given recorded state.
func (t *Timeline) MarshalJSON() ([]byte, error) {
	n := t.Windows()
	out := timelineJSON{
		WindowMs: t.window.Milliseconds(),
		Windows:  n,
		Series:   make([]timelineSeriesJSON, 0, len(t.series)),
	}
	for _, s := range t.series {
		sj := timelineSeriesJSON{Name: s.name, Kind: s.kind}
		if s.kind == SeriesHist {
			sj.Windows = make([]*HistSummary, n)
			for i := 0; i < n && i < len(s.hists); i++ {
				if s.hists[i] != nil {
					sum := s.hists[i].Summary()
					sj.Windows[i] = &sum
				}
			}
		} else {
			sj.Values = make([]int64, n)
			copy(sj.Values, s.values)
		}
		out.Series = append(out.Series, sj)
	}
	return json.Marshal(out)
}
