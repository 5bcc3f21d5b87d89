package exp

import "encoding/json"

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
