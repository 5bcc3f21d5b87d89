package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) renderers for the
// package's aggregation types. They write plain text lines, so any
// io.Writer works; the emu MetricsServer serves them under
// `GET /metrics?format=prom`.

// promName sanitizes a JSON-tag-style name (camelCase) into a
// Prometheus metric name fragment (snake_case, [a-z0-9_] only).
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteByte(byte(r - 'A' + 'a'))
		case (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'):
			b.WriteByte(byte(r))
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePromCounters renders every field of a Counters snapshot as a
// Prometheus counter named <prefix>_<snake_case_field>_total. Pass a
// Snapshot() when writers may race.
func WritePromCounters(w io.Writer, prefix string, c *Counters) {
	if c == nil {
		return
	}
	for _, row := range c.Rows() {
		name := prefix + "_" + promName(row.Name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, row.Value)
	}
}

// WritePromHist renders a Hist as a Prometheus histogram: one
// `<name>_bucket{le="..."}` line per non-empty bucket (cumulative), the
// mandatory `le="+Inf"` bucket, and `<name>_sum` / `<name>_count`.
func WritePromHist(w io.Writer, name string, h *Hist) {
	if h == nil {
		return
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	h.EachBucket(func(le float64, cum uint64) {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(le), cum)
	})
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
