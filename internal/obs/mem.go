package obs

import (
	"runtime"
	"sync/atomic"
)

// MemUsage is the memory block of a run's result. TraceBytes and
// BytesPerUser are computed from the dense trace layout (trace.Bytes) and
// are bit-identical across runs with the same seed; HeapHighWater comes
// from runtime heap sampling and is environmental — report it, but never
// compare it across runs.
type MemUsage struct {
	// TraceBytes is the deterministic in-memory footprint of the trace.
	TraceBytes uint64 `json:"traceBytes"`
	// BytesPerUser is TraceBytes divided by the user count — the scale
	// sweep's headline number (flat bytes-per-user means the dense
	// layout scales linearly in N with no per-object overhead creep).
	BytesPerUser float64 `json:"bytesPerUser"`
	// HeapHighWater is the largest runtime.MemStats.HeapAlloc sample of
	// the run: not the live heap, as it counts garbage the GC has not
	// freed yet (after set-up, the trace generator's too). It is
	// environmental (allocator and GC timing dependent), so it is
	// excluded from the JSON encoding: same-seed results must stay
	// byte-identical. Consumers that report environmental numbers anyway
	// (the emu /metrics endpoint, the scale sweep's BENCH records, which
	// carry wall-clock timings too) serve it through explicit fields.
	HeapHighWater uint64 `json:"-"`
}

// MemWatermark tracks the process HeapAlloc high-water mark at low cost.
// Tick is called once per unit of work (a video request, a served chunk)
// and reads runtime.MemStats only on power-of-two period boundaries,
// because ReadMemStats briefly stops the world. All state is atomic, so
// the single-threaded simulator and the multi-goroutine emulation use the
// same type.
type MemWatermark struct {
	mask  uint64
	ticks atomic.Uint64
	high  atomic.Uint64
}

// NewMemWatermark returns a watermark sampling once every `every` Ticks;
// every is rounded up to a power of two (minimum 1).
func NewMemWatermark(every int) *MemWatermark {
	n := uint64(1)
	for int(n) < every {
		n <<= 1
	}
	return &MemWatermark{mask: n - 1}
}

// Tick counts one unit of work, sampling the heap on period boundaries.
func (m *MemWatermark) Tick() {
	if m.ticks.Add(1)&m.mask == 0 {
		m.Sample()
	}
}

// Sample reads HeapAlloc (allocated and not yet freed, garbage included)
// unconditionally and folds it into the high-water mark. Call it at run
// end so short runs that never crossed a period boundary still report a
// watermark, then report HighWater: Sample returns nothing so that the
// heap at that one moment cannot be published under the name of the peak.
func (m *MemWatermark) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := m.high.Load()
		if ms.HeapAlloc <= old || m.high.CompareAndSwap(old, ms.HeapAlloc) {
			return
		}
	}
}

// HighWater returns the largest heap sample seen so far.
func (m *MemWatermark) HighWater() uint64 { return m.high.Load() }
