package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestMemWatermarkSamples pins the sampler contract: Sample always
// observes the heap, the high-water mark never decreases, and Tick only
// samples on its power-of-two boundaries.
func TestMemWatermarkSamples(t *testing.T) {
	m := NewMemWatermark(4)
	if m.HighWater() != 0 {
		t.Fatal("fresh watermark already has a high-water mark")
	}
	m.Sample()
	before := m.HighWater()
	if before == 0 {
		t.Fatal("Sample read a zero heap")
	}
	for i := 0; i < 64; i++ {
		m.Tick()
	}
	if m.HighWater() < before {
		t.Fatal("high-water mark decreased")
	}
}

// TestMemWatermarkPeriodRounding: any requested period becomes the next
// power of two, minimum 1 (every Tick samples).
func TestMemWatermarkPeriodRounding(t *testing.T) {
	for _, tc := range []struct {
		every int
		mask  uint64
	}{{0, 0}, {1, 0}, {3, 3}, {4, 3}, {5, 7}, {4096, 4095}} {
		if m := NewMemWatermark(tc.every); m.mask != tc.mask {
			t.Errorf("NewMemWatermark(%d).mask = %d, want %d", tc.every, m.mask, tc.mask)
		}
	}
}

// TestMemUsageJSONDeterministic pins the serialization split: the
// deterministic fields marshal, the environmental heap watermark does
// not, so same-seed results containing a MemUsage stay byte-identical.
func TestMemUsageJSONDeterministic(t *testing.T) {
	u := MemUsage{TraceBytes: 1000, BytesPerUser: 2.5, HeapHighWater: 12345}
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, `"traceBytes":1000`) || !strings.Contains(s, `"bytesPerUser":2.5`) {
		t.Fatalf("deterministic fields missing: %s", s)
	}
	if strings.Contains(s, "12345") || strings.Contains(strings.ToLower(s), "heap") {
		t.Fatalf("environmental heap watermark leaked into JSON: %s", s)
	}
}
