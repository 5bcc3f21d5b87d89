// Package emu is the real-network substrate standing in for the paper's
// PlanetLab testbed: a TCP tracker and TCP peer nodes speaking a
// length-prefixed JSON wire protocol over loopback, with injected per-pair
// WAN latency and message loss. It runs the same SocialTube protocol logic
// as the simulator, but over real sockets, real serialization and real
// concurrency.
package emu

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/ctrl"
	"github.com/socialtube/socialtube/internal/obs"
)

// MsgType discriminates wire messages.
type MsgType string

// Wire message types.
const (
	// Peer -> tracker RPCs.
	MsgRegister   MsgType = "register"    // announce address
	MsgJoin       MsgType = "join"        // SocialTube: join a channel overlay
	MsgJoinVideo  MsgType = "join_video"  // NetTube: join a per-video overlay
	MsgLeave      MsgType = "leave"       // graceful departure
	MsgServe      MsgType = "serve"       // fetch a chunk from the server
	MsgTopList    MsgType = "top_list"    // top-M videos of a channel
	MsgWatchStart MsgType = "watch_start" // PA-VoD: register watcher, get provider
	MsgWatchDone  MsgType = "watch_done"  // PA-VoD: unregister watcher
	MsgHave       MsgType = "have"        // NetTube: report a cached video

	// Peer -> peer RPCs.
	MsgQuery    MsgType = "query"     // TTL-scoped video search
	MsgChunkReq MsgType = "chunk_req" // fetch a cached chunk
	MsgConnect  MsgType = "connect"   // establish an overlay link
	MsgProbe    MsgType = "probe"     // liveness probe
	MsgBye      MsgType = "bye"       // graceful departure notification
	// MsgCacheSample asks a peer for a random sample of its cached video
	// ids (NetTube prefetches randomly from neighbours' watched videos).
	MsgCacheSample MsgType = "cache_sample"

	// Tracker -> tracker RPC.
	// MsgSync is one anti-entropy push-pull round between two replicas of
	// a tracker shard: the request carries the sender's membership
	// snapshot, the response the receiver's. Both sides merge by version.
	MsgSync MsgType = "sync"

	// Responses.
	MsgJoinOK MsgType = "join_ok" // recommended neighbours
	MsgOK     MsgType = "ok"      // generic success
	MsgMiss   MsgType = "miss"    // generic negative
)

// Message is the single wire envelope; unused fields stay empty. JSON keeps
// the protocol debuggable; the 4-byte length prefix frames each message.
type Message struct {
	Type MsgType `json:"type"`
	// Seq numbers a caller's exchanges on one connection; replies echo it.
	Seq uint64 `json:"seq,omitempty"`
	// From is the sender's node id (-1 for the tracker).
	From int `json:"from"`
	// Addr is the sender's listen address (for callbacks/links).
	Addr string `json:"addr,omitempty"`
	// Video and Chunk identify content (zero values are valid ids, so no
	// omitempty).
	Video int `json:"video"`
	Chunk int `json:"chunk"`
	// Channel identifies a channel (join, top-list).
	Channel int `json:"channel"`
	// TTL bounds query forwarding.
	TTL int `json:"ttl"`
	// Visited carries the ids of peers that already saw the query so
	// floods never revisit a node.
	Visited []int `json:"visited,omitempty"`
	// Hops reports at which depth a query hit was found.
	Hops int `json:"hops"`
	// Provider identifies the peer that can serve the video.
	Provider int `json:"provider"`
	// ProviderAddr is the provider's listen address.
	ProviderAddr string `json:"providerAddr,omitempty"`
	// Providers ranks every candidate able to serve the video, best
	// first. Provider/ProviderAddr always mirror the head of this list,
	// so one-candidate consumers keep working; failover consumers walk
	// the tail when the head dies mid-stream.
	Providers []PeerInfo `json:"providers,omitempty"`
	// Messages counts query transmissions consumed by a flood.
	Messages int `json:"messages,omitempty"`
	// Peers lists recommended neighbours (join responses).
	Peers []PeerInfo `json:"peers,omitempty"`
	// Videos lists video ids (top-list responses).
	Videos []int `json:"videos,omitempty"`
	// Payload carries chunk bytes (base64 via encoding/json).
	Payload []byte `json:"payload,omitempty"`
	// Link tags a connect request as "inner" or "inter".
	Link string `json:"link,omitempty"`
	// Accepted reports connect success.
	Accepted bool `json:"accepted,omitempty"`
	// Sync carries membership-table snapshots between tracker replicas
	// (MsgSync requests and responses only).
	Sync []ctrl.TableSync `json:"sync,omitempty"`
	// Liveness piggyback. Beats and Status ride MsgSync exchanges
	// (heartbeat counters and shard-death verdicts, see ctrl.Liveness);
	// Epoch and DeadShards are stamped on every tracker response once the
	// plane has seen a status transition, so peers learn the live shard
	// set — and when to re-resolve ring owners — from ordinary RPC
	// traffic. All omitempty: a healthy plane's frames are byte-identical
	// to the pre-liveness wire format.
	Beats      []ctrl.Beat        `json:"beats,omitempty"`
	Status     []ctrl.ShardStatus `json:"status,omitempty"`
	Epoch      int64              `json:"epoch,omitempty"`
	DeadShards uint64             `json:"deadShards,omitempty"`
}

// PeerInfo is a node id/address pair with the channel it currently serves.
type PeerInfo struct {
	ID      int    `json:"id"`
	Addr    string `json:"addr"`
	Channel int    `json:"channel"`
}

// Framing errors.
var (
	// ErrMessageTooLarge guards the frame decoder against corrupt
	// lengths.
	ErrMessageTooLarge = errors.New("emu: message exceeds frame limit")
	// ErrInvalidMessage reports a frame that decoded but failed strict
	// field validation (unknown type, negative ids, oversized lists).
	ErrInvalidMessage = errors.New("emu: invalid message")
)

// maxFrame bounds one frame: a chunk payload plus JSON overhead.
const maxFrame = 16 << 20

// Strict field bounds enforced by Message.Validate. Generous for every
// legitimate workload, tight enough that a hostile frame cannot make a
// handler iterate or allocate unboundedly.
const (
	maxWireTTL     = 64      // deepest flood any protocol configures
	maxWireHops    = 1 << 20 // reported hit depth
	maxWireList    = 4096    // Peers / Providers entries
	maxWireVisited = 1 << 16 // flood dedup set
	maxWireVideos  = 1 << 16 // top-list / cache-sample entries
	// maxWireSyncTables / maxWireSyncRecs bound one anti-entropy exchange:
	// a handful of named tables, each at most one row per (overlay, peer)
	// pair at the largest emulated scale.
	maxWireSyncTables = 8
	maxWireSyncRecs   = 1 << 17
	// maxWireBeats bounds one liveness exchange: one beat per endpoint of
	// the largest plane the dead-mask wire form supports (64 shards x 256
	// replicas).
	maxWireBeats  = 1 << 14
	maxWireShards = 64
)

// validWireTypes is the closed set of message types a handler dispatches
// on; anything else is rejected before dispatch.
var validWireTypes = map[MsgType]bool{
	MsgRegister: true, MsgJoin: true, MsgJoinVideo: true, MsgLeave: true,
	MsgServe: true, MsgTopList: true, MsgWatchStart: true, MsgWatchDone: true,
	MsgHave: true, MsgQuery: true, MsgChunkReq: true, MsgConnect: true,
	MsgProbe: true, MsgBye: true, MsgCacheSample: true, MsgSync: true,
	MsgJoinOK: true, MsgOK: true, MsgMiss: true,
}

// Validate enforces strict field bounds on a decoded message. The wire
// uses -1 as the "none"/tracker sentinel for ids, so -1 is legal and
// anything below it is hostile; list lengths are capped so a single
// frame cannot drive a handler into unbounded work.
func (m *Message) Validate() error {
	switch {
	case !validWireTypes[m.Type]:
		return fmt.Errorf("%w: unknown type %q", ErrInvalidMessage, m.Type)
	case m.From < -1:
		return fmt.Errorf("%w: from %d", ErrInvalidMessage, m.From)
	case m.Video < -1:
		return fmt.Errorf("%w: video %d", ErrInvalidMessage, m.Video)
	case m.Chunk < -1:
		return fmt.Errorf("%w: chunk %d", ErrInvalidMessage, m.Chunk)
	case m.Channel < -1:
		return fmt.Errorf("%w: channel %d", ErrInvalidMessage, m.Channel)
	case m.Provider < -1:
		return fmt.Errorf("%w: provider %d", ErrInvalidMessage, m.Provider)
	case m.TTL < 0 || m.TTL > maxWireTTL:
		return fmt.Errorf("%w: ttl %d", ErrInvalidMessage, m.TTL)
	case m.Hops < 0 || m.Hops > maxWireHops:
		return fmt.Errorf("%w: hops %d", ErrInvalidMessage, m.Hops)
	case m.Messages < 0:
		return fmt.Errorf("%w: messages %d", ErrInvalidMessage, m.Messages)
	case len(m.Visited) > maxWireVisited:
		return fmt.Errorf("%w: visited len %d", ErrInvalidMessage, len(m.Visited))
	case len(m.Peers) > maxWireList:
		return fmt.Errorf("%w: peers len %d", ErrInvalidMessage, len(m.Peers))
	case len(m.Providers) > maxWireList:
		return fmt.Errorf("%w: providers len %d", ErrInvalidMessage, len(m.Providers))
	case len(m.Videos) > maxWireVideos:
		return fmt.Errorf("%w: videos len %d", ErrInvalidMessage, len(m.Videos))
	case len(m.Sync) > maxWireSyncTables:
		return fmt.Errorf("%w: sync tables %d", ErrInvalidMessage, len(m.Sync))
	case len(m.Beats) > maxWireBeats:
		return fmt.Errorf("%w: beats len %d", ErrInvalidMessage, len(m.Beats))
	case len(m.Status) > maxWireShards:
		return fmt.Errorf("%w: status len %d", ErrInvalidMessage, len(m.Status))
	case m.Epoch < 0:
		return fmt.Errorf("%w: epoch %d", ErrInvalidMessage, m.Epoch)
	}
	for _, b := range m.Beats {
		if b.Key < 0 || b.Key >= maxWireShards<<8 || b.Ver < 0 {
			return fmt.Errorf("%w: beat %+v", ErrInvalidMessage, b)
		}
	}
	for _, st := range m.Status {
		if st.Shard < 0 || st.Shard >= maxWireShards {
			return fmt.Errorf("%w: status shard %d", ErrInvalidMessage, st.Shard)
		}
	}
	for _, ts := range m.Sync {
		if ts.Table == "" {
			return fmt.Errorf("%w: unnamed sync table", ErrInvalidMessage)
		}
		if len(ts.Recs) > maxWireSyncRecs {
			return fmt.Errorf("%w: sync table %q has %d records", ErrInvalidMessage, ts.Table, len(ts.Recs))
		}
		for _, r := range ts.Recs {
			if r.Key < -1 || r.ID < -1 {
				return fmt.Errorf("%w: sync record %+v", ErrInvalidMessage, r)
			}
		}
	}
	for _, id := range m.Visited {
		if id < -1 {
			return fmt.Errorf("%w: visited id %d", ErrInvalidMessage, id)
		}
	}
	for _, p := range m.Peers {
		if p.ID < -1 || p.Channel < -1 {
			return fmt.Errorf("%w: peer entry %+v", ErrInvalidMessage, p)
		}
	}
	for _, p := range m.Providers {
		if p.ID < -1 || p.Channel < -1 {
			return fmt.Errorf("%w: provider entry %+v", ErrInvalidMessage, p)
		}
	}
	return nil
}

// zeros backs every chunk payload up to its length: payload bytes are
// never written, so responses share them.
var zeros = make([]byte, 64<<10)

// chunkPayload returns n payload bytes.
func chunkPayload(n int) []byte {
	if n <= len(zeros) {
		return zeros[:n:n]
	}
	return make([]byte, n)
}

// frames recycles frame buffers: a frame is garbage once written or
// decoded, and a chunk's is tens of kilobytes.
var frames sync.Pool

// frameBuf takes a pooled buffer of length n; frames.Put gives it back.
func frameBuf(n int) *[]byte {
	bp, _ := frames.Get().(*[]byte)
	if bp == nil || cap(*bp) < n {
		b := make([]byte, n)
		return &b
	}
	*bp = (*bp)[:n]
	return bp
}

// encodeFrame returns m's wire form, built in the pooled buffer *bp: the
// JSON body behind a 4-byte big-endian length prefix, one write.
func encodeFrame(m *Message, bp *[]byte) ([]byte, error) {
	buf := bytes.NewBuffer((*bp)[:4])
	if err := json.NewEncoder(buf).Encode(m); err != nil {
		return nil, fmt.Errorf("marshal %s: %w", m.Type, err)
	}
	*bp = buf.Bytes()           // keep the grown buffer
	frame := (*bp)[:len(*bp)-1] // Encode ends with a newline json.Marshal does not emit
	if len(frame)-4 > maxFrame {
		return nil, ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, nil
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m *Message) error {
	bp := frameBuf(4)
	defer frames.Put(bp)
	frame, err := encodeFrame(m, bp)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, ErrMessageTooLarge
	}
	bp := frameBuf(int(n))
	defer frames.Put(bp)
	body := *bp // Unmarshal copies out of it: nothing decoded aliases the body
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("read frame body: %w", err)
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("unmarshal frame: %w", err)
	}
	return &m, nil
}

// chaosAction is the frame-level fault chosen for one response write.
type chaosAction uint8

const (
	chaosNone chaosAction = iota
	chaosCorrupt
	chaosTruncate
	chaosDuplicate
	chaosStall
)

// writeMessageChaos writes m, applying one injected frame fault and
// accounting it in ctr, the writer's live counter block, so chaos volume
// shows up in snapshots.
func writeMessageChaos(w io.Writer, m *Message, act chaosAction, stallFor time.Duration, ctr *obs.Counters) error {
	bp := frameBuf(4)
	defer frames.Put(bp)
	frame, err := encodeFrame(m, bp)
	if err != nil {
		return err
	}
	switch act {
	case chaosCorrupt:
		atomic.AddUint64(&ctr.ChaosCorrupted, 1)
		// Flip bytes at three fixed offsets of the body: the frame stays
		// well-formed at the framing layer but the body no longer decodes
		// (or no longer validates) at the receiver.
		body := frame[4:]
		for _, off := range []int{len(body) / 4, len(body) / 2, 3 * len(body) / 4} {
			body[off] ^= 0x5A
		}
	case chaosTruncate:
		atomic.AddUint64(&ctr.ChaosTruncated, 1)
		// Promise the full body, deliver half: the receiver blocks on
		// the missing bytes until the connection closes and surfaces an
		// unexpected-EOF decode error.
		frame = frame[:4+(len(frame)-4)/2]
	case chaosDuplicate:
		atomic.AddUint64(&ctr.ChaosDuplicated, 1)
		frame = append(frame, frame...)
	case chaosStall:
		atomic.AddUint64(&ctr.ChaosStalled, 1)
		time.Sleep(stallFor)
	}
	_, err = w.Write(frame)
	return err
}
