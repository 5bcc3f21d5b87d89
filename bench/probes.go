package main

import (
	"bytes"
	"net"
	"runtime"
	"time"

	"github.com/socialtube/socialtube/internal/ctrl"
	"github.com/socialtube/socialtube/internal/dist"
	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/obs"
	"github.com/socialtube/socialtube/internal/overlay"
	"github.com/socialtube/socialtube/internal/sim"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// Micro-probes call one layer's exported functions in a loop, from
// outside, the way `go test -bench` would; they give the per-layer costs
// no in-run timing can isolate. A probe runs only on the workloads whose
// end-to-end numbers its layer can move (the catalog's On lists).

// probeCost is what one operation of a probe costs.
type probeCost struct {
	Ns, Bytes, Allocs float64
	N                 int
}

// prober carries what a probe group needs: where to report, the workload
// (for its trace or running cluster) and how long a timed loop lasts at
// least.
type prober struct {
	rec    *record
	w      runner
	target time.Duration
}

// timeOp grows the iteration count, as testing.B does, until one loop of
// fn lasts the target, and reports that loop's per-operation cost.
func (p *prober) timeOp(fn func(n int)) probeCost {
	var ms0, ms1 runtime.MemStats
	for n := 64; ; {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		fn(n)
		took := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if took >= p.target || n >= 1<<30 {
			return probeCost{
				Ns:     float64(took.Nanoseconds()) / float64(n),
				Bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
				Allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
				N:      n,
			}
		}
		// Aim a fifth past the target, growing at most 100x per step.
		next := int(1.2 * float64(n) * float64(p.target) / float64(took.Nanoseconds()+1))
		if next > 100*n {
			next = 100 * n
		}
		n = max(next, n+1)
	}
}

// sink keeps results alive so the compiler cannot drop the probed call.
var sink int

// probeGroup is a set of metrics one probe function measures together.
type probeGroup struct {
	// Gate is the metric whose On list decides whether the group runs.
	Gate string
	Run  func(p *prober)
}

var probeGroups = []probeGroup{
	{"dist.rng_new_ns", probeDist},
	{"vod.plan_session_ns", probePlanSession},
	{"sim.engine.ns_per_event", probeEngine},
	{"simnet.latency_ns", probeSimnet},
	{"overlay.flood_ns", probeOverlay},
	{"load.gen_ns_per_arrival", probeLoad},
	{"obs.hist_add_ns", probeHist},
	{"trace.stream_encode_mb_per_s", probeTraceStream},
	{"ctrl.table_put_ns", probeCtrl},
	{"emu.wire.encode_ns", probeWire},
	{"emu.rpc.dial_us", probeRPC},
}

// runProbes runs the probe groups that apply to the workload.
func runProbes(workload string, w runner, rec *record, quick bool) {
	p := &prober{rec: rec, w: w, target: 300 * time.Millisecond}
	if quick {
		p.target = 2 * time.Millisecond
	}
	for _, g := range probeGroups {
		if def, _ := lookupMetric(g.Gate); def.on(workload) {
			g.Run(p)
		}
	}
}

func probeDist(p *prober) {
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += dist.NewRNG(int64(i)).Intn(8)
		}
	})
	p.rec.set("dist.rng_new_ns", c.Ns, c.N)
	p.rec.set("dist.rng_new_bytes", c.Bytes, c.N)
	z, err := dist.NewZipf(1000, 1.0)
	if err != nil {
		panic(err)
	}
	g := dist.NewRNG(1)
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += z.Sample(g)
		}
	})
	p.rec.set("dist.zipf_sample_ns", c.Ns, c.N)
}

func probePlanSession(p *prober) {
	tr := p.w.population()
	picker, err := vod.NewPicker(tr, vod.DefaultBehavior())
	if err != nil {
		panic(err)
	}
	g := dist.NewRNG(1)
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			plan := picker.PlanSession(g, &tr.Users[i%len(tr.Users)], 10, 500*time.Second)
			sink += len(plan.Videos)
		}
	})
	p.rec.set("vod.plan_session_ns", c.Ns, c.N)
}

// probeEngine fires steady-state no-op events: each event schedules its
// successor, so the queue holds a constant 1 024 entries.
func probeEngine(p *prober) {
	e := sim.NewEngine()
	var chain func(now time.Duration)
	chain = func(time.Duration) { e.After(time.Millisecond, chain) }
	for i := 0; i < 1024; i++ {
		e.At(time.Duration(i)*time.Microsecond, chain)
	}
	c := p.timeOp(func(n int) {
		if err := e.Run(0, e.Fired()+uint64(n)); err != nil {
			panic(err)
		}
	})
	p.rec.set("sim.engine.ns_per_event", c.Ns, c.N)
}

func probeSimnet(p *prober) {
	const nodes = 10_000
	network, err := simnet.New(simnet.DefaultConfig())
	if err != nil {
		panic(err)
	}
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += int(network.Latency(simnet.NodeID(i%nodes), simnet.NodeID((i*7+1)%nodes)))
		}
	})
	p.rec.set("simnet.latency_ns", c.Ns, c.N)
	p.rec.set("simnet.latency_bytes", c.Bytes, c.N)
	now := time.Duration(0)
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			now += time.Millisecond
			sink += int(network.Transfer(simnet.NodeID(i%nodes), simnet.NodeID((i+1)%nodes), 1<<20, now))
		}
	})
	p.rec.set("simnet.transfer_ns", c.Ns, c.N)
	cfg := simnet.DefaultConfig()
	cfg.ServerQueueCap = openQueueCap
	queued, err := simnet.New(cfg)
	if err != nil {
		panic(err)
	}
	now = 0
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			now += 50 * time.Millisecond // near the uplink's service time: the queue is in use
			done, _ := queued.ServerTransfer(simnet.NodeID(i%nodes), 80_000, 400_000, now)
			sink += int(done)
		}
	})
	p.rec.set("simnet.server_transfer_ns", c.Ns, c.N)
}

// probeOverlay floods a channel-overlay-shaped mesh with the paper's
// inner link budget (N_l = 5) and TTL 2, and times edge insertion.
func probeOverlay(p *prober) {
	const nodes, links, ttl = 10_000, 5, 2
	m := overlay.NewMesh(links)
	g := dist.NewRNG(1)
	for i := 0; i < nodes; i++ {
		m.Connect(i, (i+1)%nodes)
	}
	for i := 0; i < nodes; i++ {
		for tries := 0; m.Degree(i) < links && tries < 4*links; tries++ {
			m.Connect(i, g.Intn(nodes))
		}
	}
	scratch := overlay.NewFloodScratch(nodes)
	miss := func(int) bool { return false } // full expansion
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += scratch.Flood(i%nodes, ttl, m.NeighborsView, miss).Messages
		}
	})
	p.rec.set("overlay.flood_ns", c.Ns, c.N)
	var fresh *overlay.Mesh
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if i%(2*nodes) == 0 { // a new mesh before link budgets fill up
				fresh = overlay.NewMesh(links)
			}
			if fresh.Connect(g.Intn(nodes), g.Intn(nodes)) {
				sink++
			}
		}
	})
	p.rec.set("overlay.connect_ns", c.Ns, c.N)
}

func probeLoad(p *prober) {
	gen, err := load.NewGen(&load.Profile{Mode: load.Steady, Seed: 1, RPS: 1000, Duration: 1 << 62})
	if err != nil {
		panic(err)
	}
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			a, _ := gen.Next()
			sink += int(a.At)
		}
	})
	p.rec.set("load.gen_ns_per_arrival", c.Ns, c.N)
}

func probeHist(p *prober) {
	var h obs.Hist
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Add(float64(i%5000) + 1)
		}
	})
	sink += h.Len()
	p.rec.set("obs.hist_add_ns", c.Ns, c.N)
}

// probeTraceStream encodes and decodes the workload's trace in memory.
func probeTraceStream(p *prober) {
	tr := p.w.population()
	var buf bytes.Buffer
	start := time.Now()
	if err := tr.SaveStream(&buf); err != nil {
		panic(err)
	}
	enc := time.Since(start)
	mb := float64(buf.Len()) / 1e6
	start = time.Now()
	back, err := trace.LoadStream(&buf)
	if err != nil {
		panic(err)
	}
	dec := time.Since(start)
	sink += len(back.Users)
	p.rec.set("trace.stream_encode_mb_per_s", mb/enc.Seconds(), 1)
	p.rec.set("trace.stream_decode_mb_per_s", mb/dec.Seconds(), 1)
}

// memberSnapshot fills a member table with rows members and returns its
// gossip snapshot.
func memberSnapshot(rows int) []ctrl.SyncRecord {
	t := ctrl.NewMemberTable(0)
	for i := 0; i < rows; i++ {
		t.Put(int64(i%64), i, "127.0.0.1:40000")
	}
	return t.Snapshot()
}

func probeCtrl(p *prober) {
	t := ctrl.NewMemberTable(0)
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			t.Put(int64(i%64), i%1024, "127.0.0.1:40000")
		}
	})
	p.rec.set("ctrl.table_put_ns", c.Ns, c.N)

	const rows = 1024
	snap := memberSnapshot(rows)
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += ctrl.NewMemberTable(1).Merge(snap)
		}
	})
	p.rec.set("ctrl.table_merge_ns_per_row", c.Ns/rows, c.N*rows)

	ring, err := ctrl.NewRing(1, 4)
	if err != nil {
		panic(err)
	}
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += ring.Owner(int64(i))
		}
	})
	p.rec.set("ctrl.ring_owner_ns", c.Ns, c.N)

	// What one full-snapshot gossip frame costs per membership row.
	for _, size := range []int{128, rows} {
		var buf bytes.Buffer
		msg := &emu.Message{Type: emu.MsgSync, From: -1, Sync: []ctrl.TableSync{{Table: "channels", Recs: memberSnapshot(size)}}}
		if err := emu.WriteMessage(&buf, msg); err != nil {
			panic(err)
		}
		logf("  ctrl: sync frame of %d rows is %d B", size, buf.Len())
		if size == rows {
			p.rec.set("ctrl.sync_bytes_per_row", float64(buf.Len())/rows, 0)
		}
	}
}

// wireSamples are a representative flood query and its response naming
// twelve providers.
func wireSamples() []*emu.Message {
	resp := &emu.Message{Type: emu.MsgOK, From: 5, Addr: "127.0.0.1:40005", Video: 4242, Channel: 37,
		Hops: 2, Provider: 100, ProviderAddr: "127.0.0.1:40100", Messages: 9}
	for i := 0; i < 12; i++ {
		resp.Providers = append(resp.Providers, emu.PeerInfo{ID: 100 + i, Addr: "127.0.0.1:40100", Channel: 37})
	}
	return []*emu.Message{
		{Type: emu.MsgQuery, From: 17, Addr: "127.0.0.1:40017", Video: 4242, Channel: 37, TTL: 2, Provider: -1, Visited: []int{17, 3, 99}},
		resp,
	}
}

func probeWire(p *prober) {
	msgs := wireSamples()
	var buf bytes.Buffer
	c := p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := emu.WriteMessage(&buf, msgs[i%len(msgs)]); err != nil {
				panic(err)
			}
		}
	})
	p.rec.set("emu.wire.encode_ns", c.Ns, c.N)
	p.rec.set("emu.wire.encode_allocs", c.Allocs, c.N)

	var frames [][]byte
	total := 0
	for _, m := range msgs {
		buf.Reset()
		if err := emu.WriteMessage(&buf, m); err != nil {
			panic(err)
		}
		frames = append(frames, append([]byte(nil), buf.Bytes()...))
		total += buf.Len()
	}
	p.rec.set("emu.wire.frame_bytes", float64(total)/float64(len(frames)), len(frames))
	var rd bytes.Reader
	c = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			rd.Reset(frames[i%len(frames)])
			m, err := emu.ReadMessage(&rd)
			if err != nil {
				panic(err)
			}
			sink += m.Video
		}
	})
	p.rec.set("emu.wire.decode_ns", c.Ns, c.N)
	p.rec.set("emu.wire.decode_allocs", c.Allocs, c.N)
}

// probeRPC dials the workload's running tracker from the harness and
// makes one top_list round trip per connection, as every peer RPC does:
// the dial share is what pooled connections would save.
func probeRPC(p *prober) {
	ew, ok := p.w.(*emuWorkload)
	if !ok || len(ew.clusters) == 0 {
		return
	}
	addr := ew.clusters[0].plane.First().Addr()
	req := &emu.Message{Type: emu.MsgTopList, From: 0, Channel: 0, Provider: -1}
	var dials, rtts []float64
	for deadline := time.Now().Add(p.target); time.Now().Before(deadline) || len(dials) < 20; {
		t0 := time.Now()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			p.rec.gate(false, "rpc probe: dial %s: %v", addr, err)
			return
		}
		t1 := time.Now()
		err = emu.WriteMessage(conn, req)
		if err == nil {
			_, err = emu.ReadMessage(conn)
		}
		t2 := time.Now()
		conn.Close()
		if err != nil {
			p.rec.gate(false, "rpc probe: top_list round trip: %v", err)
			return
		}
		dials = append(dials, us(t1.Sub(t0)))
		rtts = append(rtts, us(t2.Sub(t1)))
	}
	p.rec.set("emu.rpc.dial_us", median(dials), len(dials))
	p.rec.set("emu.rpc.rtt_us", median(rtts), len(rtts))
}
