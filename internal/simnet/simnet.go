// Package simnet models the network underneath the discrete-event
// simulator: per-pair propagation latency, finite peer upload capacity and a
// finite server uplink with FIFO queueing. Server overload — the mechanism
// behind PA-VoD's long startup delays in Fig. 17 — emerges naturally from
// the queueing model.
package simnet

import (
	"fmt"
	"time"

	"github.com/socialtube/socialtube/internal/dist"
)

// NodeID identifies an endpoint. ServerID is reserved for the central
// server; peers use non-negative ids.
type NodeID int

// ServerID is the NodeID of the central VoD server.
const ServerID NodeID = -1

// PeerUplinkBps is a peer's upload capacity. The paper notes typical
// download bandwidth is at least twice the 320 kbps bitrate; uploads are
// modelled at 1 Mbps.
const PeerUplinkBps = 1_000_000

// MinLatency and MaxLatency bound one-way propagation delay between any two
// endpoints.
const (
	MinLatency = 10 * time.Millisecond
	MaxLatency = 150 * time.Millisecond
)

// Config sets the physical parameters of the modelled network. They default
// to the paper's Table I: 320 kbps video bitrate, 50 Mbps server uplink and
// residential peer uplinks of roughly twice the bitrate.
type Config struct {
	// Seed drives the deterministic latency model.
	Seed int64
	// ServerUplinkBps is the server's total upload capacity (Table I:
	// 50 Mbps).
	ServerUplinkBps int64
	// ServerQueueCap bounds the server's admission queue: the maximum
	// number of admitted requests that may still be draining through
	// the server uplink when a new request arrives. Arrivals beyond
	// the bound are shed (see ServerTransfer). 0 keeps the legacy
	// unbounded FIFO, whose queueing delay grows without limit under
	// overload. The queue's service rate is the server uplink.
	ServerQueueCap int
}

// DefaultConfig returns the Table I network parameters.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		ServerUplinkBps: 50_000_000,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.ServerUplinkBps <= 0:
		return fmt.Errorf("%w: serverUplinkBps=%d", dist.ErrBadParameter, c.ServerUplinkBps)
	case c.ServerQueueCap < 0:
		return fmt.Errorf("%w: serverQueueCap=%d", dist.ErrBadParameter, c.ServerQueueCap)
	}
	return nil
}

// Network tracks uplink occupancy and answers latency/transfer queries. It
// is single-threaded, like the simulator that drives it.
type Network struct {
	cfg Config
	// busyUntil is each uplink's busy-until time by node id + 1 (the
	// server at 0), grown by doubling to the largest id that has sent.
	busyUntil []time.Duration
	// serverQ holds the uplink-free times of admitted server requests,
	// in ascending order, when ServerQueueCap > 0.
	serverQ []time.Duration
	// Stats.
	serverBytes int64
	peerBytes   int64
	queuePeak   int
}

// New builds a network model from cfg.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("simnet config: %w", err)
	}
	return &Network{cfg: cfg}, nil
}

// Latency returns the one-way propagation delay between a and b. It is
// symmetric and deterministic under the configured seed.
func (n *Network) Latency(a, b NodeID) time.Duration {
	return PairLatency(n.cfg.Seed, MinLatency, MaxLatency, int64(a), int64(b))
}

// PairLatency is the WAN latency model both substrates share: the one-way
// delay between nodes a and b is lo + PairUniform(seed, a, b)·(hi − lo),
// symmetric, stateless, and 0 when a == b.
func PairLatency(seed int64, lo, hi time.Duration, a, b int64) time.Duration {
	if a == b {
		return 0
	}
	return lo + time.Duration(dist.PairUniform(seed, a, b)*float64(hi-lo))
}

// Reserve is the FIFO uplink rule both substrates share: bytes offered at
// now to an uplink of bps that is busy until busyUntil start at
// max(now, busyUntil) and finish leaving at the returned time, the
// uplink's new busy-until.
func Reserve(busyUntil, now time.Duration, bytes, bps int64) time.Duration {
	return max(now, busyUntil) + time.Duration(float64(bytes*8)/float64(bps)*float64(time.Second))
}

// Transfer reserves from's uplink for a transfer of size bytes starting no
// earlier than now and returns the absolute virtual time at which the last
// byte arrives at to (queueing + transmission + propagation). Uplinks are
// FIFO: concurrent transfers from the same endpoint queue behind each other,
// so an overloaded server exhibits growing delays.
func (n *Network) Transfer(from, to NodeID, bytes int64, now time.Duration) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	i, bps := int(from)+1, int64(PeerUplinkBps)
	if i >= len(n.busyUntil) {
		n.busyUntil = append(n.busyUntil, make([]time.Duration, max(i+1, 2*len(n.busyUntil))-len(n.busyUntil))...)
	}
	if from == ServerID {
		bps = n.cfg.ServerUplinkBps
		n.serverBytes += bytes
	} else {
		n.peerBytes += bytes
	}
	done := Reserve(n.busyUntil[i], now, bytes, bps)
	n.busyUntil[i] = done
	return done + n.Latency(from, to)
}

// drainServerQ drops admitted requests whose transfers have fully
// drained through the server uplink by now.
func (n *Network) drainServerQ(now time.Duration) {
	i := 0
	for i < len(n.serverQ) && n.serverQ[i] <= now {
		i++
	}
	if i > 0 {
		n.serverQ = append(n.serverQ[:0], n.serverQ[i:]...)
	}
}

// ServerTransfer delivers one server-served video request through the
// bounded admission queue: head bytes fill the playout buffer (the
// returned time is when they land at to) and the remaining
// total − head bytes stream behind them on the same FIFO reservation.
// With ServerQueueCap > 0, a request arriving while the queue already
// holds cap draining requests is shed — no bytes move and ok is
// false. With cap 0 admission always succeeds and the call is
// byte-identical to two legacy Transfer calls (head, then remainder).
func (n *Network) ServerTransfer(to NodeID, head, total int64, now time.Duration) (headDone time.Duration, ok bool) {
	if total < 0 {
		total = 0
	}
	if head > total {
		head = total
	}
	if qcap := n.cfg.ServerQueueCap; qcap > 0 {
		n.drainServerQ(now)
		if len(n.serverQ) >= qcap {
			return 0, false
		}
	}
	headDone = n.Transfer(ServerID, to, head, now)
	if rest := total - head; rest > 0 {
		n.Transfer(ServerID, to, rest, now)
	}
	if n.cfg.ServerQueueCap > 0 {
		// The request occupies its slot until the uplink has pushed
		// its last byte; busyUntil is monotonic, so the queue stays
		// sorted by completion time.
		n.serverQ = append(n.serverQ, n.busyUntil[0])
		if len(n.serverQ) > n.queuePeak {
			n.queuePeak = len(n.serverQ)
		}
	}
	return headDone, true
}

// ServerBytes returns the total bytes served by the server so far.
func (n *Network) ServerBytes() int64 { return n.serverBytes }

// PeerBytes returns the total bytes served by peers so far.
func (n *Network) PeerBytes() int64 { return n.peerBytes }

// ServerQueuePeak returns the high-water occupancy of the bounded
// admission queue (0 when unbounded).
func (n *Network) ServerQueuePeak() int { return n.queuePeak }
