package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero server uplink", func(c *Config) { c.ServerUplinkBps = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
}

func TestLatencySymmetricDeterministicBounded(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	for a := NodeID(-1); a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			l1 := n.Latency(a, b)
			l2 := n.Latency(b, a)
			if l1 != l2 {
				t.Fatalf("latency not symmetric for (%d,%d)", a, b)
			}
			if l1 < MinLatency || l1 > MaxLatency {
				t.Fatalf("latency %v outside bounds", l1)
			}
			if l1 != n.Latency(a, b) {
				t.Fatal("latency not deterministic")
			}
		}
	}
}

func TestLatencySelfIsZero(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	if got := n.Latency(3, 3); got != 0 {
		t.Fatalf("self latency %v, want 0", got)
	}
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	// 125,000 bytes at 1 Mbps = exactly 1 s transmission.
	done := n.Transfer(1, 2, 125_000, 0)
	wantTx := time.Second
	lat := n.Latency(1, 2)
	if done != wantTx+lat {
		t.Fatalf("transfer done at %v, want %v", done, wantTx+lat)
	}
}

func TestFIFOQueueingDelaysSecondTransfer(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	first := n.Transfer(1, 2, 125_000, 0)
	second := n.Transfer(1, 3, 125_000, 0)
	// Second transfer starts only after the first finishes transmitting.
	wantStart := first - n.Latency(1, 2) // end of transmission
	wantDone := wantStart + time.Second + n.Latency(1, 3)
	if second != wantDone {
		t.Fatalf("second transfer done at %v, want %v", second, wantDone)
	}
}

func TestServerOverloadGrowsQueueDelay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerUplinkBps = 1_000_000
	n := mustNew(t, cfg)
	for i := 0; i < 10; i++ {
		n.Transfer(ServerID, NodeID(i), 125_000, 0)
	}
	// After 10 one-second transfers queued at t=0, an 11th waits 10s.
	if got, want := n.Transfer(ServerID, 10, 125_000, 0), 11*time.Second+n.Latency(ServerID, 10); got != want {
		t.Fatalf("queued transfer done at %v, want %v (10s wait)", got, want)
	}
	// By t=20s the uplink has drained: no wait.
	if got, want := n.Transfer(ServerID, 11, 125_000, 20*time.Second), 21*time.Second+n.Latency(ServerID, 11); got != want {
		t.Fatalf("transfer after drain done at %v, want %v (no wait)", got, want)
	}
}

func TestServerFasterThanPeers(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	serverDone := n.Transfer(ServerID, 5, 1_000_000, 0) - n.Latency(ServerID, 5)
	n2 := mustNew(t, DefaultConfig())
	peerDone := n2.Transfer(1, 5, 1_000_000, 0) - n2.Latency(1, 5)
	if serverDone >= peerDone {
		t.Fatalf("server transmission %v not faster than peer %v", serverDone, peerDone)
	}
}

func TestByteAccounting(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	n.Transfer(ServerID, 1, 1000, 0)
	n.Transfer(2, 1, 500, 0)
	n.Transfer(3, 1, 500, 0)
	if n.ServerBytes() != 1000 {
		t.Errorf("server bytes %d, want 1000", n.ServerBytes())
	}
	if n.PeerBytes() != 1000 {
		t.Errorf("peer bytes %d, want 1000", n.PeerBytes())
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	n := mustNew(t, DefaultConfig())
	done := n.Transfer(1, 2, -100, 0)
	if done != n.Latency(1, 2) {
		t.Fatalf("negative-size transfer took %v, want latency only", done)
	}
	if n.PeerBytes() != 0 {
		t.Errorf("peer bytes %d, want 0", n.PeerBytes())
	}
}

// Property: a transfer never completes before its transmission time plus
// propagation latency, and uplink occupancy is monotone.
func TestTransferNeverTooFastProperty(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		n, err := New(cfg)
		if err != nil {
			return false
		}
		if len(sizes) > 100 {
			sizes = sizes[:100]
		}
		now := time.Duration(0)
		var lastDone time.Duration
		for i, s := range sizes {
			bytes := int64(s)
			to := NodeID(i%7 + 1)
			done := n.Transfer(ServerID, to, bytes, now)
			minTx := time.Duration(float64(bytes*8) / float64(cfg.ServerUplinkBps) * float64(time.Second))
			if done < now+minTx+n.Latency(ServerID, to) {
				return false
			}
			txEnd := done - n.Latency(ServerID, to)
			if txEnd < lastDone {
				return false // uplink transmissions overlap
			}
			lastDone = txEnd
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestServerQueueNeverExceedsCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerUplinkBps = 1_000_000 // ~8 s per MB: easy to saturate
	cfg.ServerQueueCap = 4
	n := mustNew(t, cfg)
	var admitted, shed int64
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		if _, ok := n.ServerTransfer(NodeID(i%7), 64_000, 1_000_000, now); ok {
			admitted++
		} else {
			shed++
		}
		if p := n.ServerQueuePeak(); p > cfg.ServerQueueCap {
			t.Fatalf("queue peak %d exceeds cap %d at arrival %d", p, cfg.ServerQueueCap, i)
		}
		now += 100 * time.Millisecond
	}
	if shed == 0 {
		t.Fatal("saturating arrival pattern shed nothing")
	}
	if admitted+shed != 200 {
		t.Fatalf("admitted %d + shed %d != offered 200", admitted, shed)
	}
	// Shed requests must not move bytes.
	if got, want := n.ServerBytes(), admitted*1_000_000; got != want {
		t.Fatalf("server bytes %d, want %d (admitted requests only)", got, want)
	}
}

func TestServerQueueDrainsAndReadmits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerUplinkBps = 8_000_000 // 1 MB/s
	cfg.ServerQueueCap = 2
	n := mustNew(t, cfg)
	// Two 1 MB requests fill the queue; a third at t=0 is shed.
	if _, ok := n.ServerTransfer(0, 0, 1_000_000, 0); !ok {
		t.Fatal("first request shed")
	}
	if _, ok := n.ServerTransfer(1, 0, 1_000_000, 0); !ok {
		t.Fatal("second request shed")
	}
	if _, ok := n.ServerTransfer(2, 0, 1_000_000, 0); ok {
		t.Fatal("third request admitted with the queue full")
	}
	// By t=1.5s the first request (1 s of service) has drained.
	if _, ok := n.ServerTransfer(2, 0, 1_000_000, 1500*time.Millisecond); !ok {
		t.Fatal("request shed after the queue drained a slot")
	}
	if n.ServerQueuePeak() != 2 {
		t.Fatalf("queue peak %d, want the cap 2", n.ServerQueuePeak())
	}
}

func TestServerTransferUnboundedMatchesLegacyTransfers(t *testing.T) {
	cfg := DefaultConfig()
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	const head, total = 40_000, 400_000
	now := 3 * time.Second
	gotHead, ok := a.ServerTransfer(5, head, total, now)
	if !ok {
		t.Fatal("unbounded admission refused")
	}
	wantHead := b.Transfer(ServerID, 5, head, now)
	b.Transfer(ServerID, 5, total-head, now)
	if gotHead != wantHead {
		t.Fatalf("head completion %v, legacy %v", gotHead, wantHead)
	}
	if a.ServerBytes() != b.ServerBytes() {
		t.Fatalf("bytes %d, legacy %d", a.ServerBytes(), b.ServerBytes())
	}
	// Equal uplink occupancy: a further transfer finishes at the same time.
	if a.Transfer(ServerID, 6, 1000, now) != b.Transfer(ServerID, 6, 1000, now) {
		t.Fatal("uplink occupancy diverged from legacy transfers")
	}
}

func TestConfigRejectsNegativeQueueCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerQueueCap = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("expected config error for negative queue cap")
	}
}
