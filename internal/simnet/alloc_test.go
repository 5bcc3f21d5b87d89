// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race
// runs — same convention as internal/sim/alloc_test.go.

//go:build !race

package simnet

import (
	"testing"
	"time"
)

// TestLatencyAllocFree pins the stateless pair draw: a simulated request
// asks for ~3 latencies, so one allocation here is three per request.
func TestLatencyAllocFree(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	i := 0
	avg := testing.AllocsPerRun(10_000, func() {
		i++
		latencySink += n.Latency(ServerID, NodeID(i)) + n.Latency(NodeID(i), NodeID(i*7+1))
	})
	if avg != 0 {
		t.Fatalf("Latency allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTransferAllocFree pins the dense uplink table: a transfer from a
// node, or the server, that has already sent reads its slot and allocates
// nothing.
func TestTransferAllocFree(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	const nodes = 1000
	for id := ServerID; id < nodes; id++ {
		n.Transfer(id, 0, 1000, 0)
	}
	i := 0
	avg := testing.AllocsPerRun(10_000, func() {
		i++
		latencySink += n.Transfer(NodeID(i%nodes), NodeID(i%7), 1000, 0) + n.Transfer(ServerID, NodeID(i), 1000, 0)
	})
	if avg != 0 {
		t.Fatalf("Transfer from a node that has sent allocates %.2f allocs/op, want 0", avg)
	}
}

// latencySink keeps the compiler from eliding the measured calls.
var latencySink time.Duration

// BenchmarkLatency measures one pair-latency lookup; scripts/ci.sh prints
// its ns/op and allocs/op.
func BenchmarkLatency(b *testing.B) {
	n, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		latencySink += n.Latency(NodeID(i), NodeID(i>>3))
	}
}
