// Package metrics collects and summarizes experiment measurements:
// streaming samples, percentile extraction and the plain-text tables the
// benchmark harness prints for each figure of the paper.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates float64 observations and answers percentile queries.
// The zero value is ready to use.
//
// Memory: a Sample keeps every observation (plus a lazily built sorted
// copy), so it holds O(N) float64s — 16 bytes per observation worst case.
// That is the right trade for per-node or per-event series whose size is
// bounded by the population (peer bandwidth, links-by-index, repair
// latency), and it is what makes exact interpolated percentiles possible.
// It is the wrong trade for per-request series at scale-sweep sizes
// (1M+ users × sessions × videos): those paths use obs.Hist, a bounded
// log-bucketed histogram with O(buckets) memory and ≤~1.6% relative
// quantile error, instead.
type Sample struct {
	// values stays in insertion order for the Sample's whole life:
	// Values() must not depend on whether a percentile was queried
	// first.
	values []float64
	// sorted is an ascending copy of values, built lazily on the first
	// percentile query and invalidated by Add.
	sorted []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = nil
}

// AddDuration records a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Mean returns the average, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Percentile returns the p-th percentile (0-100), or NaN when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	if len(s.sorted) != len(s.values) {
		s.sorted = append(s.sorted[:0], s.values...)
		sort.Float64s(s.sorted)
	}
	q := p / 100
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[len(s.sorted)-1]
	}
	pos := q * float64(len(s.sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := pos - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Min returns the smallest observation, or NaN when empty.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation, or NaN when empty.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Summary is the JSON form of a Sample: its size and key percentiles. It is
// the one percentile-extraction point shared by the figure builders, the
// experiment results and the emu /metrics endpoint, so every consumer reports
// the same statistics.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P1    float64 `json:"p1"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Summary returns the sample's summary (zero-valued when empty).
func (s *Sample) Summary() Summary {
	if s.Len() == 0 {
		return Summary{}
	}
	return Summary{
		Count: s.Len(),
		Mean:  s.Mean(),
		P1:    s.Percentile(1),
		P25:   s.Percentile(25),
		P50:   s.Percentile(50),
		P75:   s.Percentile(75),
		P90:   s.Percentile(90),
		P99:   s.Percentile(99),
		Min:   s.Min(),
		Max:   s.Max(),
	}
}

// MarshalJSON encodes the sample as its Summary.
func (s *Sample) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Summary())
}

// Counter is a named monotonically increasing count.
type Counter struct {
	n int64
}

// MarshalJSON encodes the counter as its value.
func (c *Counter) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.n)
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Addn adds delta (negative deltas are ignored).
func (c *Counter) Addn(delta int64) {
	if delta > 0 {
		c.n += delta
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Table renders aligned plain-text result tables, one per paper
// figure/table, so the bench harness prints rows comparable to the paper.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// CSV renders the table as comma-separated values (header row first, no
// title), ready for external plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				for pad := len(cell); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
