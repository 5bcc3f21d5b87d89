package exp

import (
	"encoding/json"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Addn(5)
	c.Addn(-3) // ignored
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
}

func TestCounterJSON(t *testing.T) {
	var c Counter
	c.Addn(7)
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "7" {
		t.Fatalf("counter json = %s", raw)
	}
}
