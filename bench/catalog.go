package main

import "slices"

// Workload names. Later issues cite them verbatim.
const (
	wSimClosed  = "sim-closed"
	wSimSharded = "sim-sharded"
	wSimOpen    = "sim-open"
	wEmuSteady  = "emu-steady"
	wEmuChurn   = "emu-churn"
)

var (
	simWorkloads = []string{wSimClosed, wSimSharded, wSimOpen}
	emuWorkloads = []string{wEmuSteady, wEmuChurn}
)

// class says where a metric is reported and how it is judged.
type class int

const (
	// endToEnd metrics are measured untraced on every workload and are
	// the end_to_end list of BENCHMARK.json: each has a relative bound.
	endToEnd class = iota
	// workloadE2E metrics are user-visible too but exist only on the
	// workloads that give them a meaning (a knee needs an open loop, a
	// wall-clock request latency needs real sockets). They are measured
	// untraced, judged by -compare against their own bound, and listed
	// under per_layer in BENCHMARK.json because its end_to_end metrics
	// must be reported by every workload.
	workloadE2E
	// layer metrics come from the traced pass and have no bound.
	layer
)

// metricDef is one row of the ledger's metric catalog — the single place a
// name, unit, direction and bound are written down. BENCHMARK.json, the
// report, -compare and the README table all follow it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which the metric may
	// worsen; Abs, when non-zero, replaces it with an absolute allowance
	// (for metrics whose expected value is 0 or that move in fixed steps).
	Bound float64
	Abs   float64
	Class class
	// On lists the workloads that measure the metric; nil means all. A
	// traced run reports 0 for a metric its workload does not measure.
	On []string
}

func (m metricDef) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, Class: endToEnd}
}

func we2e(name, unit, better string, bound, abs float64, on ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, Abs: abs, Class: workloadE2E, On: on}
}

func lay(name, unit, better string, on ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Class: layer, On: on}
}

// protoLayers are the three protocol packages the decorator times; the
// key is the vod.Protocol name the package reports.
var protoLayers = []struct{ Proto, Layer string }{
	{"SocialTube", "core"},
	{"NetTube", "baseline.nettube"},
	{"PA-VoD", "baseline.pavod"},
}

// catalog lists every metric the harness reports, in report order.
var catalog = buildCatalog()

func buildCatalog() []metricDef {
	sim, emu := simWorkloads, emuWorkloads
	closedOpen := []string{wSimClosed, wSimOpen}
	c := []metricDef{
		// End to end, every workload.
		e2e("setup_s", "s", "lower", 0.25),
		e2e("req_per_s", "1/s", "higher", 0.25),
		e2e("cpu_us_per_req", "us", "lower", 0.25),
		e2e("rss_peak_mb", "MB", "lower", 0.20),
		e2e("server_byte_frac", "ratio", "lower", 0.05),

		// End to end, where the workload gives them a meaning.
		we2e("failed_frac", "ratio", "lower", 0, 0.002),
		we2e("peer_bw_p50", "ratio", "higher", 0.01, 0, wSimClosed, wSimSharded),
		we2e("startup_p50_ms", "ms", "lower", 0.01, 0, wSimOpen),
		we2e("startup_p99_ms", "ms", "lower", 0.01, 0, wSimOpen),
		we2e("knee_rps", "1/s", "higher", 0, 0.5, wSimOpen),
		we2e("emu_req_p50_us", "us", "lower", 0.10, 0, emu...),
		we2e("emu_req_p99_us", "us", "lower", 0.15, 0, emu...),
		we2e("emu_turnover_p50_us", "us", "lower", 0.10, 0, emu...),

		// internal/trace.
		lay("trace.generate_s", "s", "lower"),
		lay("trace.partition_s", "s", "lower", wSimSharded),
		lay("trace.bytes_per_user", "B", "lower"),
		lay("trace.stream_encode_mb_per_s", "MB/s", "higher", wSimClosed),
		lay("trace.stream_decode_mb_per_s", "MB/s", "higher", wSimClosed),
		// internal/dist, internal/vod.
		lay("dist.rng_new_ns", "ns", "lower", closedOpen...),
		lay("dist.rng_new_bytes", "B", "lower", closedOpen...),
		lay("dist.zipf_sample_ns", "ns", "lower", closedOpen...),
		lay("vod.plan_session_ns", "ns", "lower", closedOpen...),
		// internal/sim.
		lay("sim.engine.ns_per_event", "ns", "lower", sim...),
		lay("sim.engine.events_per_req", "count", "lower", sim...),
		lay("sim.engine.queue_peak", "count", "lower", sim...),
		lay("sim.sharded.utilisation", "ratio", "higher", wSimSharded),
		lay("sim.sharded.critical_path_frac", "ratio", "lower", wSimSharded),
		lay("sim.sharded.epochs", "count", "lower", wSimSharded),
		lay("sim.sharded.mail_per_req", "count", "lower", wSimSharded),
		// internal/simnet.
		lay("simnet.latency_ns", "ns", "lower", closedOpen...),
		lay("simnet.latency_bytes", "B", "lower", closedOpen...),
		lay("simnet.transfer_ns", "ns", "lower", closedOpen...),
		lay("simnet.server_transfer_ns", "ns", "lower", closedOpen...),
		lay("simnet.queue_peak", "count", "lower", wSimOpen),
		lay("simnet.admitted", "count", "higher", wSimOpen),
		lay("simnet.shed", "count", "lower", wSimOpen),
		// internal/overlay.
		lay("overlay.flood_ns", "ns", "lower", wSimClosed),
		lay("overlay.connect_ns", "ns", "lower", wSimClosed),
	}
	// internal/core and internal/baseline, timed by the decorator.
	for _, p := range protoLayers {
		on := sim
		if p.Layer != "core" {
			on = closedOpen // sim-sharded runs the SocialTube leg only
		}
		c = append(c,
			lay(p.Layer+".busy_s", "s", "lower", on...),
			lay(p.Layer+".request_us", "us", "lower", on...),
			lay(p.Layer+".finish_us", "us", "lower", on...))
		if p.Layer != "baseline.pavod" { // PA-VoD has no maintenance probing
			c = append(c, lay(p.Layer+".probe_us", "us", "lower", on...))
		}
		c = append(c,
			lay(p.Layer+".req_per_s", "1/s", "higher", on...),
			lay(p.Layer+".msgs_per_req", "count", "lower", on...),
			lay(p.Layer+".peer_hit_frac", "ratio", "higher", on...),
			lay(p.Layer+".links_last", "count", "lower", on...))
	}
	c = append(c,
		lay("core.cache_hit_frac", "ratio", "higher", sim...),
		lay("core.prefix_hit_frac", "ratio", "higher", sim...),
		lay("core.session_us", "us", "lower", sim...),
		lay("core.remote_hit_frac", "ratio", "higher", wSimSharded),
		// internal/exp: what the runner itself costs around the protocol.
		lay("exp.self_us_per_req", "us", "lower", sim...),
		lay("exp.alloc_bytes_per_req", "B", "lower", sim...),
		lay("exp.mallocs_per_req", "count", "lower", sim...),
		lay("exp.gc_cycles", "count", "lower", sim...),
		lay("exp.gc_pause_ms", "ms", "lower", sim...),
		lay("exp.heap_live_peak_mb", "MB", "lower", sim...),
		// internal/load.
		lay("load.gen_ns_per_arrival", "ns", "lower", wSimOpen),
		lay("load.offered", "count", "higher", wSimOpen),
		lay("load.busy", "count", "lower", wSimOpen),
		// internal/obs.
		lay("obs.hist_add_ns", "ns", "lower", sim...),
		// internal/ctrl.
		lay("ctrl.table_put_ns", "ns", "lower", emu...),
		lay("ctrl.table_merge_ns_per_row", "ns", "lower", emu...),
		lay("ctrl.ring_owner_ns", "ns", "lower", emu...),
		lay("ctrl.sync_bytes_per_row", "B", "lower", emu...),
		// internal/emu: wire codec, RPC path, tracker, peer.
		lay("emu.wire.encode_ns", "ns", "lower", emu...),
		lay("emu.wire.decode_ns", "ns", "lower", emu...),
		lay("emu.wire.encode_allocs", "count", "lower", emu...),
		lay("emu.wire.decode_allocs", "count", "lower", emu...),
		lay("emu.wire.frame_bytes", "B", "lower", emu...),
		lay("emu.rpc.dial_us", "us", "lower", emu...),
		lay("emu.rpc.rtt_us", "us", "lower", emu...),
		lay("emu.tracker.rpcs_per_req", "count", "lower", emu...),
		lay("emu.tracker.serve_per_req", "count", "lower", emu...),
		lay("emu.tracker.join_per_req", "count", "lower", emu...),
		lay("emu.tracker.leave_per_session", "count", "lower", emu...),
		lay("emu.tracker.sync_per_s", "1/s", "lower", emu...),
		lay("emu.peer.request_us.socialtube", "us", "lower", emu...),
		lay("emu.peer.request_us.nettube", "us", "lower", wEmuSteady),
		lay("emu.peer.request_us.pavod", "us", "lower", wEmuSteady),
		lay("emu.peer.finish_us", "us", "lower", emu...),
		lay("emu.peer.leave_us", "us", "lower", emu...),
		lay("emu.peer.online_us", "us", "lower", emu...),
		lay("emu.peer.msgs_per_req", "count", "lower", emu...),
		lay("emu.peer.peer_hit_frac", "ratio", "higher", emu...),
		lay("emu.peer.cache_hit_frac", "ratio", "higher", emu...),
		lay("emu.peer.rpc_failures", "count", "lower", emu...),
		lay("health.breaker_opens", "count", "lower", emu...),
		// The harness itself.
		lay("bench.trace_overhead_frac", "ratio", "lower"),
	)
	return c
}

// metricsOf returns the catalog rows of the given classes, in order.
func metricsOf(classes ...class) []metricDef {
	var out []metricDef
	for _, m := range catalog {
		for _, c := range classes {
			if m.Class == c {
				out = append(out, m)
			}
		}
	}
	return out
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
