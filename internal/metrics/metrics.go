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
// copy), so it holds O(N) float64s — 16 bytes per observation worst case
// — which is what makes exact interpolated percentiles possible. No
// experiment result holds one: every result series, including the ones
// that look population-bounded (peer bandwidth is per node, but
// links-by-index is one observation per finished video), is an obs.Hist,
// a bounded log-bucketed histogram with O(observed range) memory and
// ≤~3% relative quantile error.
type Sample struct {
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
