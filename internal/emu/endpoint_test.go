package emu

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/simnet"
)

// TestEndpoint runs the one receive path through both of its owners. A
// peer and a tracker must treat the wire identically: a malformed frame
// is counted and the listener survives, a frame that decodes but fails
// validation is counted and unanswered, a dark owner (tracker down, peer
// crashed) never replies, and Stop is idempotent and returns only after
// every in-flight handler has.
func TestEndpoint(t *testing.T) {
	tr := emuTrace(t)
	// A fixed 30ms latency keeps every handler in flight long enough for
	// the stop case to catch it mid-exchange.
	cond := &Conditions{Seed: 1, MinLatency: 30 * time.Millisecond, MaxLatency: 30 * time.Millisecond}
	type owner struct {
		ep       *endpoint
		start    func() error
		stop     func()
		counters func() obs.Counters
		dark     func(bool)
		valid    *Message
	}
	kinds := map[string]func(t *testing.T) owner{
		"tracker": func(t *testing.T) owner {
			tk, err := NewTracker(DefaultTrackerConfig(), tr, cond)
			if err != nil {
				t.Fatal(err)
			}
			return owner{tk.ep, tk.Start, tk.Stop, tk.Counters, tk.SetDown,
				&Message{Type: MsgTopList, From: 1, Channel: int(tr.Channels[0].ID)}}
		},
		"peer": func(t *testing.T) owner {
			tk := startTracker(t, tr, nil)
			p := newTestPeer(t, DefaultPeerConfig(0, ModeSocialTube), tr, tk.Addr(), cond)
			dark := func(v bool) {
				if v {
					p.Crash()
				} else {
					p.Rejoin()
				}
			}
			return owner{p.ep, p.Start, p.Stop, p.Counters, dark, &Message{Type: MsgProbe, From: 9}}
		},
	}
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			o := build(t)
			// Count handlers entering (admit) and leaving (serve) so the
			// stop case can tell a joined handler from an abandoned one.
			var entered, left atomic.Int64
			admit, serve := o.ep.admit, o.ep.serve
			o.ep.admit = func(m *Message) bool { entered.Add(1); return admit(m) }
			o.ep.serve = func(m *Message) *Message { defer left.Add(1); return serve(m) }
			if err := o.start(); err != nil {
				t.Fatal(err)
			}
			defer o.stop()
			addr := o.ep.addr()
			answers := func(when string) {
				t.Helper()
				if resp, err := rpc(addr, o.valid, time.Second); err != nil || resp.Type != MsgOK {
					t.Fatalf("%s: valid request not answered: %v %v", when, resp, err)
				}
			}
			answers("fresh endpoint")

			// Malformed: a plausible-length header followed by bytes that
			// fail the frame checksum.
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			for deadline := time.Now().Add(2 * time.Second); o.counters().FramesMalformed == 0; {
				if time.Now().After(deadline) {
					t.Fatal("FramesMalformed never incremented")
				}
				time.Sleep(time.Millisecond)
			}
			answers("after a malformed frame")

			// Invalid: decodes, fails Validate, never reaches admit.
			before := entered.Load()
			if _, err := rpc(addr, &Message{Type: "gibberish", From: 9}, 200*time.Millisecond); err == nil {
				t.Fatal("invalid frame was answered")
			}
			if got := o.counters().FramesRejected; got != 1 {
				t.Fatalf("FramesRejected = %d, want 1", got)
			}
			if entered.Load() != before {
				t.Fatal("invalid frame reached the owner's admit check")
			}
			answers("after an invalid frame")

			// Dark: the request is read and vanishes.
			o.dark(true)
			if _, err := rpc(addr, o.valid, 200*time.Millisecond); err == nil {
				t.Fatal("dark owner answered")
			}
			o.dark(false)
			answers("after recovery")

			// Stop with a handler in flight: it must be joined, not
			// abandoned, and a second Stop must be harmless.
			left.Store(0)
			entered.Store(0)
			done := make(chan error, 1)
			go func() {
				_, err := rpc(addr, o.valid, time.Second)
				done <- err
			}()
			for deadline := time.Now().Add(2 * time.Second); entered.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("in-flight request never reached the handler")
				}
				time.Sleep(time.Millisecond)
			}
			o.stop()
			if e, l := entered.Load(), left.Load(); l != e {
				t.Fatalf("Stop returned with %d of %d handlers still running", e-l, e)
			}
			o.stop()
			if err := <-done; err != nil {
				t.Fatalf("request in flight at Stop lost its answer: %v", err)
			}
			if _, err := rpc(addr, o.valid, 200*time.Millisecond); err == nil {
				t.Fatal("stopped endpoint still accepts requests")
			}
		})
	}
}

// TestLatencyDrawSharedWithSimnet pins the one pair-latency draw both
// substrates use: for the same (seed, a, b) and range, the simulated
// network and the emulated conditions assign the same delay, the server /
// tracker (-1) included.
func TestLatencyDrawSharedWithSimnet(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		nc := simnet.DefaultConfig()
		nc.Seed = seed
		sim, err := simnet.New(nc)
		if err != nil {
			t.Fatal(err)
		}
		emu := &Conditions{Seed: seed, MinLatency: simnet.MinLatency, MaxLatency: simnet.MaxLatency}
		for a := -1; a < 12; a++ {
			for b := -1; b < 12; b++ {
				if got, want := emu.Latency(a, b), sim.Latency(simnet.NodeID(a), simnet.NodeID(b)); got != want {
					t.Fatalf("seed %d pair (%d,%d): emu %v, sim %v", seed, a, b, got, want)
				}
			}
		}
	}
}
