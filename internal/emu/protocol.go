// Package emu is the real-network substrate standing in for the paper's
// PlanetLab testbed: a TCP tracker and TCP peer nodes speaking a
// length-prefixed, checksummed binary wire protocol over loopback, with
// injected per-pair WAN latency and message loss. It runs the same
// SocialTube protocol logic as the simulator, but over real sockets, real
// serialization and real concurrency.
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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

// Message is the single wire envelope; unused fields stay empty. On the
// wire each field is encoded in declaration order (see appendBody); the
// JSON tags serve tests and tools that print messages.
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
	// TTL is the message's one small count, read by type: a query's
	// forwarding bound, a join's member flag (> 0: register the sender as
	// a member of the channel overlay), a top-list's list length and a
	// cache sample's sample size.
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
	// Payload carries chunk bytes.
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
	// traffic.
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

// maxFrame bounds what follows one frame's length prefix: the checksum and
// a body of at most one chunk payload plus the envelope's other fields.
const maxFrame = 16 << 20

// Strict field bounds, enforced on list lengths by the decoder and on
// every field by Message.Validate. Generous for every legitimate workload,
// tight enough that a hostile frame cannot make a handler iterate or
// allocate unboundedly.
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

// wireTypes is the closed set of message types a handler dispatches on:
// the decoder interns a frame's type against it, and Validate rejects
// anything else before dispatch.
var wireTypes = [...]MsgType{
	MsgJoin, MsgJoinVideo, MsgLeave, MsgServe, MsgTopList, MsgWatchStart,
	MsgWatchDone, MsgHave, MsgQuery, MsgChunkReq, MsgConnect, MsgProbe,
	MsgBye, MsgCacheSample, MsgSync, MsgJoinOK, MsgOK, MsgMiss,
}

// Validate enforces strict field bounds on a decoded message. The wire
// uses -1 as the "none"/tracker sentinel for ids, so -1 is legal and
// anything below it is hostile; list lengths are capped so a single
// frame cannot drive a handler into unbounded work.
func (m *Message) Validate() error {
	switch {
	case !slices.Contains(wireTypes[:], m.Type):
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

// chunkPayloadBytes is the number of bytes a peer or the tracker ships per
// chunk: scaled down from the real chunk size to keep runs fast, and charged
// against the sender's UplinkBps for delivery timing.
const chunkPayloadBytes = 8 << 10

// chunkPayload backs every chunk response: payload bytes are never
// written, so responses share them.
var chunkPayload = make([]byte, chunkPayloadBytes)

// frames recycles frame buffers: a frame is garbage once written or
// decoded, and a chunk's is tens of kilobytes. A reader takes one only once
// a frame's length prefix has arrived, so a connection parked between
// frames holds none.
var frames sync.Pool

// prefixes recycles the 4-byte length prefix a reader blocks on.
var prefixes = sync.Pool{New: func() any { return new([4]byte) }}

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

// A frame is a 4-byte big-endian length counting the bytes after it, the
// CRC-32C (Castagnoli) of the body, then the body: every Message field in
// declaration order. Signed integers are zig-zag varints and unsigned ones
// uvarints; a string, Payload or list is a uvarint length followed by its
// bytes or elements; a bool is one byte, 0 or 1. The checksum is what keeps
// a corrupted frame undecodable: without it a flipped byte of a binary body
// often still decodes to a valid message.
const frameHeader = 4 + crc32.Size // length prefix + checksum

// castagnoli is the table every frame checksum is taken with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame returns m's wire form, built in the pooled buffer *bp (at
// least frameHeader long), ready for one write.
func encodeFrame(m *Message, bp *[]byte) ([]byte, error) {
	frame := appendBody((*bp)[:frameHeader], m)
	*bp = frame // keep the grown buffer
	if len(frame)-4 > maxFrame {
		return nil, ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHeader:], castagnoli))
	return frame, nil
}

// appendBody appends m's fields in declaration order; decoder.message
// reads them back in the same order.
func appendBody(b []byte, m *Message) []byte {
	b = appendString(b, m.Type)
	b = binary.AppendUvarint(b, m.Seq)
	b = appendInt(b, m.From)
	b = appendString(b, m.Addr)
	b = appendInt(b, m.Video)
	b = appendInt(b, m.Chunk)
	b = appendInt(b, m.Channel)
	b = appendInt(b, m.TTL)
	b = appendList(b, m.Visited, appendInt)
	b = appendInt(b, m.Hops)
	b = appendInt(b, m.Provider)
	b = appendString(b, m.ProviderAddr)
	b = appendList(b, m.Providers, appendPeer)
	b = appendInt(b, m.Messages)
	b = appendList(b, m.Peers, appendPeer)
	b = appendList(b, m.Videos, appendInt)
	b = appendString(b, m.Payload)
	b = appendString(b, m.Link)
	b = appendBool(b, m.Accepted)
	b = appendList(b, m.Sync, appendTable)
	b = appendList(b, m.Beats, appendBeat)
	b = appendList(b, m.Status, appendStatus)
	b = binary.AppendVarint(b, m.Epoch)
	return binary.AppendUvarint(b, m.DeadShards)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendString[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendList[T any](b []byte, v []T, elem func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = elem(b, x)
	}
	return b
}

func appendPeer(b []byte, p PeerInfo) []byte {
	b = appendInt(b, p.ID)
	b = appendString(b, p.Addr)
	return appendInt(b, p.Channel)
}

func appendTable(b []byte, ts ctrl.TableSync) []byte {
	b = appendString(b, ts.Table)
	return appendList(b, ts.Recs, appendRecord)
}

func appendRecord(b []byte, r ctrl.SyncRecord) []byte {
	b = binary.AppendVarint(b, r.Key)
	b = appendInt(b, r.ID)
	b = appendString(b, r.Addr)
	b = binary.AppendUvarint(b, r.Ver)
	return appendBool(b, r.Dead)
}

func appendBeat(b []byte, bt ctrl.Beat) []byte {
	b = appendInt(b, bt.Key)
	return binary.AppendVarint(b, bt.Ver)
}

func appendStatus(b []byte, st ctrl.ShardStatus) []byte {
	b = appendInt(b, st.Shard)
	b = appendBool(b, st.Dead)
	return binary.AppendUvarint(b, st.Ver)
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m *Message) error {
	bp := frameBuf(frameHeader)
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

// ReadMessage reads one framed message. A checksum mismatch, a malformed
// varint or bool, a list longer than its bound or than the bytes left, and
// trailing bytes are all errors. Nothing decoded aliases the frame buffer.
func ReadMessage(r io.Reader) (*Message, error) {
	prefix := prefixes.Get().(*[4]byte)
	defer prefixes.Put(prefix)
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxFrame {
		return nil, ErrMessageTooLarge
	}
	bp := frameBuf(int(n))
	defer frames.Put(bp)
	frame := *bp
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, fmt.Errorf("read frame body: %w", err)
	}
	if n < crc32.Size || binary.BigEndian.Uint32(frame) != crc32.Checksum(frame[crc32.Size:], castagnoli) {
		return nil, errors.New("emu: frame checksum mismatch")
	}
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	m := new(Message)
	if err := d.decode(m, frame[crc32.Size:]); err != nil {
		return nil, fmt.Errorf("decode frame: %w", err)
	}
	return m, nil
}

// decoders recycles decoder scratch space.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decoder reads one frame body. The first malformed field records err and
// empties the input, so every later read yields a zero value and the error
// surfaces once, from decode. Strings are gathered into strs while reading
// and become substrings of one allocation at the end.
type decoder struct {
	b    []byte // unread body
	err  error
	strs []byte   // every non-empty string read so far, back to back
	refs []strRef // where each of them lands
}

// strRef is the field one gathered string lands in; it ends at strs[end].
type strRef struct {
	dst *string
	end int
}

// decode reads body into m, then resets d for reuse.
func (d *decoder) decode(m *Message, body []byte) error {
	d.b = body
	d.message(m)
	if len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	err := d.err
	if err == nil {
		s, start := string(d.strs), 0
		for _, r := range d.refs {
			*r.dst, start = s[start:r.end], r.end
		}
	}
	clear(d.refs)
	d.b, d.err, d.strs, d.refs = nil, nil, d.strs[:0], d.refs[:0]
	return err
}

// message mirrors appendBody.
func (d *decoder) message(m *Message) {
	d.msgType(&m.Type)
	m.Seq = d.uvarint()
	m.From = d.int()
	d.str(&m.Addr)
	m.Video = d.int()
	m.Chunk = d.int()
	m.Channel = d.int()
	m.TTL = d.int()
	m.Visited = list(d, maxWireVisited, 1, (*decoder).intTo)
	m.Hops = d.int()
	m.Provider = d.int()
	d.str(&m.ProviderAddr)
	m.Providers = list(d, maxWireList, 3, (*decoder).peer)
	m.Messages = d.int()
	m.Peers = list(d, maxWireList, 3, (*decoder).peer)
	m.Videos = list(d, maxWireVideos, 1, (*decoder).intTo)
	if p := d.bytes(); len(p) > 0 {
		m.Payload = slices.Clone(p)
	}
	d.str(&m.Link)
	m.Accepted = d.bool()
	m.Sync = list(d, maxWireSyncTables, 2, (*decoder).table)
	m.Beats = list(d, maxWireBeats, 2, (*decoder).beat)
	m.Status = list(d, maxWireShards, 3, (*decoder).status)
	m.Epoch = d.varint()
	m.DeadShards = d.uvarint()
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// uvarint reads a uvarint in its shortest form: a truncated, overflowing or
// overlong (zero final byte) encoding is an error.
func (d *decoder) uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 { // most fields fit one byte
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad bool")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// bytes returns the next length-prefixed run of the body; it aliases the
// body, so callers copy what they keep.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("%d bytes promised, %d left", n, len(d.b))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str(dst *string) { d.keep(dst, d.bytes()) }

// keep gathers v as the future value of *dst.
func (d *decoder) keep(dst *string, v []byte) {
	if len(v) > 0 {
		d.strs = append(d.strs, v...)
		d.refs = append(d.refs, strRef{dst, len(d.strs)})
	}
}

// msgType interns a known type; an unknown one is kept for Validate to
// refuse.
func (d *decoder) msgType(dst *MsgType) {
	v := d.bytes()
	for _, t := range wireTypes {
		if string(t) == string(v) {
			*dst = t
			return
		}
	}
	d.keep((*string)(dst), v)
}

// list reads a count, refused above max or when count elements of at least
// size bytes each cannot fit in what is left, then the elements.
func list[T any](d *decoder, max, size int, elem func(*decoder, *T)) []T {
	n := d.uvarint()
	if n > uint64(max) || n*uint64(size) > uint64(len(d.b)) {
		d.fail("list of %d (bound %d) in %d bytes", n, max, len(d.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		elem(d, &v[i])
	}
	return v
}

func (d *decoder) intTo(v *int) { *v = d.int() }

func (d *decoder) peer(p *PeerInfo) {
	p.ID = d.int()
	d.str(&p.Addr)
	p.Channel = d.int()
}

func (d *decoder) table(ts *ctrl.TableSync) {
	d.str(&ts.Table)
	ts.Recs = list(d, maxWireSyncRecs, 5, (*decoder).record)
}

func (d *decoder) record(r *ctrl.SyncRecord) {
	r.Key = d.varint()
	r.ID = d.int()
	d.str(&r.Addr)
	r.Ver = d.uvarint()
	r.Dead = d.bool()
}

func (d *decoder) beat(bt *ctrl.Beat) {
	bt.Key = d.int()
	bt.Ver = d.varint()
}

func (d *decoder) status(st *ctrl.ShardStatus) {
	st.Shard = d.int()
	st.Dead = d.bool()
	st.Ver = d.uvarint()
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
	bp := frameBuf(frameHeader)
	defer frames.Put(bp)
	frame, err := encodeFrame(m, bp)
	if err != nil {
		return err
	}
	switch act {
	case chaosCorrupt:
		atomic.AddUint64(&ctr.ChaosCorrupted, 1)
		// Flip bytes at three fixed offsets past the length prefix: the
		// frame stays well-formed at the framing layer but fails its
		// checksum at the receiver.
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
