package emu

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/ctrl"
	"github.com/socialtube/socialtube/internal/trace"
)

// fuzzSeedMessages is one representative message per wire type, the
// golden corpus both fuzzers start from.
func fuzzSeedMessages() []*Message {
	return []*Message{
		{Type: MsgJoin, From: 2, Addr: "127.0.0.1:9", Channel: 3, TTL: 1},
		{Type: MsgJoinVideo, From: 2, Addr: "127.0.0.1:9", Video: 7},
		{Type: MsgLeave, From: 2, Channel: 3},
		{Type: MsgServe, From: 4, Video: 7, Chunk: 1},
		{Type: MsgTopList, From: 4, Channel: 3},
		{Type: MsgWatchStart, From: 5, Addr: "127.0.0.1:9", Video: 7},
		{Type: MsgWatchDone, From: 5, Video: 7},
		{Type: MsgHave, From: 5, Addr: "127.0.0.1:9", Video: 7},
		{Type: MsgQuery, From: 6, Video: 7, TTL: 2, Visited: []int{0, 6}},
		{Type: MsgChunkReq, From: 6, Video: 7, Chunk: 0},
		{Type: MsgConnect, From: 6, Addr: "127.0.0.1:9", Link: "inner", Channel: 3},
		{Type: MsgProbe, From: 6},
		{Type: MsgBye, From: 6},
		{Type: MsgCacheSample, From: 6},
		{Type: MsgJoinOK, From: -1, Peers: []PeerInfo{{ID: 1, Addr: "127.0.0.1:9", Channel: 3}}},
		{Type: MsgOK, From: -1, Provider: 1, ProviderAddr: "127.0.0.1:9",
			Providers: []PeerInfo{{ID: 1, Addr: "127.0.0.1:9", Channel: 3}}, Hops: 1},
		{Type: MsgMiss, From: -1},
		// Gossip anti-entropy frames: a liveness-only exchange (beats +
		// status + epoch), a full table sync carrying liveness, and a
		// tracker response stamped with the ring epoch and dead-shard
		// mask a takeover propagates to peers.
		{Type: MsgSync, From: -1,
			Beats:  []ctrl.Beat{{Key: 0, Ver: 4}, {Key: 1<<8 | 1, Ver: 9}},
			Status: []ctrl.ShardStatus{{Shard: 1, Dead: true, Ver: 5 << 8}},
			Epoch:  1},
		{Type: MsgSync, From: -1,
			Sync:  []ctrl.TableSync{{Table: "channels"}},
			Beats: []ctrl.Beat{{Key: 2 << 8, Ver: 1}},
			Epoch: 2},
		{Type: MsgJoinOK, From: -1, Epoch: 3, DeadShards: 1 << 1,
			Peers: []PeerInfo{{ID: 1, Addr: "127.0.0.1:9", Channel: 3}}},
	}
}

// FuzzReadMessage hammers the frame decoder with arbitrary bytes: it must
// never panic, and any frame it accepts must survive a strict-validate +
// re-encode + re-decode round trip.
func FuzzReadMessage(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Malformed shapes: truncated header, length promising more than the
	// body, oversized length, zero-length frame, raw junk.
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 9, '{', '}'})
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, maxFrame+1)
	f.Add(hdr)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte("junk frame with no header at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		back, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if back.Type != m.Type || back.From != m.From || back.Video != m.Video {
			t.Fatalf("round trip drifted: %+v vs %+v", back, m)
		}
	})
}

// FuzzHandleMessage drives a live peer's dispatch with arbitrary decoded
// messages: whatever a hostile client encodes, a handler must answer or
// refuse without panicking. The peer is real (cache, links, breaker) but
// its RPC timeout is tiny so forwarded floods to garbage addresses cost
// microseconds.
func FuzzHandleMessage(f *testing.F) {
	cfg := trace.DefaultConfig()
	cfg.Seed = 51
	cfg.Channels = 12
	cfg.Users = 16
	cfg.Categories = 4
	cfg.MaxInterestsPerUser = 4
	tr, err := trace.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	pc := DefaultPeerConfig(1, ModeSocialTube)
	pc.RPCTimeout = time.Millisecond
	pc.UplinkBps = 1 << 30
	p := newTestPeer(f, pc, tr, "127.0.0.1:1", nil)
	if err := p.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(p.Stop)
	p.SetOnline(true)
	if len(tr.Videos) > 0 {
		p.SeedCache(tr.Videos[0].ID)
	}

	for _, m := range fuzzSeedMessages() {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if json.Unmarshal(data, &m) != nil {
			return
		}
		if m.Validate() != nil {
			return // the wire layer rejects these before dispatch
		}
		if resp := p.dispatch(&m); resp != nil {
			if err := resp.Validate(); err != nil {
				t.Fatalf("handler produced an invalid response: %v", err)
			}
		}
	})
}
