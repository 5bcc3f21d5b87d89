package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"github.com/socialtube/socialtube/internal/ctrl"
)

// chunkReply is a peer's answer to a chunk request: one real payload.
func chunkReply() *Message {
	return &Message{Type: MsgOK, From: 3, Video: 7, Chunk: 2,
		Payload: chunkPayload}
}

// wireSamples is every frame shape the wire tests exercise: the fuzz
// corpus, a chunk reply, and a gossip exchange holding records and the
// extreme values of every integer width.
func wireSamples() []*Message {
	return append(fuzzSeedMessages(), chunkReply(), &Message{
		Type: MsgSync, Seq: math.MaxUint64, From: math.MinInt64, Epoch: math.MaxInt64, DeadShards: 1 << 63,
		Sync: []ctrl.TableSync{
			{Table: "channels", Recs: []ctrl.SyncRecord{
				{Key: 3, ID: 1, Addr: "127.0.0.1:9", Ver: 1<<8 | 2},
				{Key: math.MinInt64, ID: -1, Ver: math.MaxUint64, Dead: true},
			}},
			{Table: "videos"},
		},
		Beats:  []ctrl.Beat{{Key: 1, Ver: math.MinInt64}},
		Status: []ctrl.ShardStatus{{Shard: 63, Ver: 9}},
	})
}

func encode(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameOf frames body with its length and a correct checksum.
func frameOf(body []byte) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(4+len(body)))
	f = binary.BigEndian.AppendUint32(f, crc32.Checksum(body, castagnoli))
	return append(f, body...)
}

// TestWireRoundTrip decodes every sample to a message deeply equal to
// the one encoded. An empty list and a nil one share one encoding (count
// 0) and both decode to nil, so the samples hold no empty non-nil list.
func TestWireRoundTrip(t *testing.T) {
	for _, in := range wireSamples() {
		out, err := ReadMessage(bytes.NewReader(encode(t, in)))
		if err != nil {
			t.Fatalf("%s: %v", in.Type, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", out, in)
		}
	}
	out, err := ReadMessage(bytes.NewReader(encode(t, &Message{Type: MsgOK, Visited: []int{}, Peers: []PeerInfo{}})))
	if err != nil || out.Visited != nil || out.Peers != nil {
		t.Fatalf("empty lists decode to %#v %#v (%v), want nil", out.Visited, out.Peers, err)
	}
}

// TestCorruptFrameNeverDecodes flips each byte of every sample's checksum
// and body, one at a time: no such frame may decode. Without the
// checksum most flips inside a chunk payload or an id would decode.
func TestCorruptFrameNeverDecodes(t *testing.T) {
	for _, m := range wireSamples() {
		frame := encode(t, m)
		for i := 4; i < len(frame); i++ {
			for _, mask := range []byte{0x01, 0x5A, 0xFF} {
				frame[i] ^= mask
				got, err := ReadMessage(bytes.NewReader(frame))
				frame[i] ^= mask
				if err == nil {
					t.Fatalf("%s frame with byte %d ^ %#x decoded as %+v", m.Type, i, mask, got)
				}
			}
		}
	}
}

// TestReadMessageRejectsMalformedBody feeds bodies that carry a correct
// checksum but break the layout; each must fail to decode rather than
// yield a message.
func TestReadMessageRejectsMalformedBody(t *testing.T) {
	// A probe with every other field zero: the type, then 23 single-byte
	// zero fields (Accepted is the 18th, Sync the 19th).
	base := append([]byte("\x05probe"), make([]byte, 23)...)
	const from, visited, accepted, sync = 7, 13, 23, 24
	edit := func(at int, with ...byte) []byte {
		return append(append(append([]byte(nil), base[:at]...), with...), base[at+1:]...)
	}
	if m, err := ReadMessage(bytes.NewReader(frameOf(base))); err != nil || !reflect.DeepEqual(m, &Message{Type: MsgProbe}) {
		t.Fatalf("base body decodes to %+v, %v", m, err)
	}
	for name, body := range map[string][]byte{
		"trailing byte":      append(append([]byte(nil), base...), 0),
		"short body":         base[:len(base)-1],
		"bool of 2":          edit(accepted, 2),
		"overlong varint":    edit(from, 0x80, 0x00),
		"overflowing varint": edit(from, bytes.Repeat([]byte{0xFF}, 10)...),
		"list past the body": edit(visited, 0xC8, 0x01),
		// Padded so that, but for the bound, nine empty tables would fit.
		"list above its bound": append(edit(sync, maxWireSyncTables+1), make([]byte, 2*(maxWireSyncTables+1))...),
		"string past the body": edit(from+1, 0x7F),
		"no checksum":          nil,
	} {
		frame := frameOf(body)
		if body == nil {
			frame = []byte{0, 0, 0, 2, 0, 0}
		}
		if m, err := ReadMessage(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: decoded as %+v", name, m)
		}
	}
	// An unknown type still decodes, so the endpoint can count it as
	// rejected by Validate rather than as malformed.
	m, err := ReadMessage(bytes.NewReader(frameOf(append([]byte("\x09gibberish"), base[6:]...))))
	if err != nil || m.Type != "gibberish" || !errors.Is(m.Validate(), ErrInvalidMessage) {
		t.Fatalf("unknown type: %+v, %v", m, err)
	}
}

// FuzzDecodeBody frames arbitrary bodies with a correct checksum, so the
// fuzzer reaches the decoder's checks that FuzzReadMessage's random frames
// rarely get past the checksum to. The encoding is canonical: any body that
// decodes re-encodes to the same bytes.
func FuzzDecodeBody(f *testing.F) {
	for _, m := range wireSamples() {
		f.Add(encode(f, m)[frameHeader:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := ReadMessage(bytes.NewReader(frameOf(body)))
		if err != nil {
			return
		}
		if got := encode(t, m)[frameHeader:]; !bytes.Equal(got, body) {
			t.Fatalf("body %x decodes to %+v, which encodes to %x", body, m, got)
		}
	})
}
