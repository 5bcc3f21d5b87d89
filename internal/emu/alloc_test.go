// Alloc assertions are meaningless under the race detector (its
// instrumentation allocates), so this file is build-tagged out of -race
// runs — same convention as internal/sim/alloc_test.go.

//go:build !race

package emu

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/obs"
)

// TestFrameDrawAllocFree pins the per-frame loss and chaos draws as
// stateless: Drop runs on every admitted frame, so it must not build a
// random source per call.
func TestFrameDrawAllocFree(t *testing.T) {
	c := &Conditions{Seed: 3, LossP: 0.5}
	c.Apply(faults.Event{Kind: faults.KindChaosStart, CorruptP: 0.1})
	avg := testing.AllocsPerRun(10_000, func() {
		if c.Drop() {
			dropSink++
		}
		if act, _ := c.nextChaos(); act != chaosNone {
			dropSink++
		}
	})
	if avg != 0 {
		t.Fatalf("a frame's draws allocate %.2f allocs/op, want 0", avg)
	}
}

// TestWireAllocs pins the codec's allocation budget on the two frames a
// flood exchanges: writing a 12-provider response allocates nothing, and
// reading it or a query with a Visited list allocates the message, its
// one list and one string holding every decoded string.
func TestWireAllocs(t *testing.T) {
	resp := &Message{Type: MsgOK, From: 5, Addr: "127.0.0.1:40005", Video: 4242, Channel: 37,
		Hops: 2, Provider: 100, ProviderAddr: "127.0.0.1:40100", Messages: 9}
	for i := 0; i < 12; i++ {
		resp.Providers = append(resp.Providers, PeerInfo{ID: 100 + i, Addr: "127.0.0.1:40100", Channel: 37})
	}
	query := &Message{Type: MsgQuery, From: 17, Addr: "127.0.0.1:40017", Video: 4242, Channel: 37,
		TTL: 2, Provider: -1, Visited: []int{17, 3, 99}}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := WriteMessage(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("WriteMessage of a 12-provider response: %.1f allocs/op, want 0", avg)
	}
	for _, m := range []*Message{resp, query} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		var rd bytes.Reader
		avg := testing.AllocsPerRun(1000, func() {
			rd.Reset(buf.Bytes())
			if _, err := ReadMessage(&rd); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 4 {
			t.Errorf("ReadMessage of a %s frame: %.1f allocs/op, want ≤ 4", m.Type, avg)
		}
	}
}

// TestHostileListCountAllocatesNothing sends a frame whose Visited count
// is the bound, 65,536 ids, in a body of a few bytes: the decoder must
// refuse it before allocating the list.
func TestHostileListCountAllocatesNothing(t *testing.T) {
	body := append([]byte("\x05probe"), make([]byte, 7)...) // type, seq .. ttl
	body = binary.AppendUvarint(body, maxWireVisited)
	frame := frameOf(append(body, make([]byte, 15)...))
	var rd bytes.Reader
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		rd.Reset(frame)
		if m, err := ReadMessage(&rd); err == nil {
			t.Fatalf("decoded as %+v", m)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4<<10 {
		t.Fatalf("a refused frame allocates %d B", per)
	}
}

// TestParkedReaderPinsNoFrameBuffer: an endpoint handler parked between
// frames holds no pooled frame buffer. 256 connections each fetch one
// 8 KiB chunk and then stay open and idle; once the pool has been emptied
// by GC, what both ends of them keep on the heap must be well under the
// chunk frame each handler would otherwise pin.
func TestParkedReaderPinsNoFrameBuffer(t *testing.T) {
	const conns = 256
	ep := newEndpoint(0, nil, time.Minute, &obs.Counters{},
		func(*Message) bool { return true },
		func(*Message) *Message { return &Message{Type: MsgOK, Payload: chunkPayload} })
	if err := ep.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ep.stop()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle drops the pool's victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heap()
	open := make([]net.Conn, 0, conns)
	defer func() {
		for _, c := range open {
			c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ep.addr())
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, c)
		if err := WriteMessage(c, &Message{Type: MsgChunkReq, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadMessage(c); err != nil || len(resp.Payload) != 8<<10 {
			t.Fatalf("connection %d: %v", i, err)
		}
	}
	per := (int64(heap()) - int64(before)) / conns
	if per >= 6<<10 {
		t.Fatalf("an idle connection keeps %d B of heap, want < 6 KiB", per)
	}
	t.Logf("%d B of heap per idle connection", per)
}

// dropSink keeps the compiler from eliding the measured calls.
var dropSink int
