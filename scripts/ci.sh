#!/bin/sh
# CI gate for the SocialTube reproduction.
#
# Build, vet and gofmt, check what fails fast (the nested benchmark module, the two
# line-count budgets), run the pinned gates and the allocation guards the
# race build compiles out, race-test everything once, then run the short
# allocation benchmarks and the end-to-end CLI smokes.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt (any listed file fails) =="
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "$unformatted"; exit 1; }

echo "== benchmark harness (nested module: vet + tests) =="
# bench/ has its own go.mod, so the ./... lines skip it; it compiles
# against figures/exp/emu and is frozen, so a refactor that breaks the API
# it uses should fail here, in seconds, not after the minute-long
# wall-clock figure tests below.
(cd bench && go vet ./... && go test ./...)

echo "== non-test LOC budgets (ratchets: they only move down) =="
# Two ceilings, two numbers in scripts/: the repository outside bench/, and
# bench/ itself. Lower the number when you delete.
loc_by_package() {
	find "$@" -name '*.go' -not -name '*_test.go' | xargs wc -l | sed '$d' |
		awk '{ d = $2; sub("/[^/]*$", "", d); n[d] += $1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
}
check_loc() { # name budget-file find-args...
	name=$1 budget=$(cat "$2")
	shift 2
	loc=$(find "$@" -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)
	echo "non-test Go, $name: $loc lines, budget $budget"
	[ "$loc" -le "$budget" ] && return
	echo "$name grew past its budget; delete something or lower scope. By package:"
	loc_by_package "$@"
	exit 1
}
check_loc "outside bench/" scripts/loc-budget . -not -path './bench/*'
check_loc "bench/" scripts/loc-budget-bench bench

echo "== experiment-driver gate (golden Results, determinism table, shared picker, N_h = 0, fault schedules and windows, job options; -race x5) =="
# exp has one driver; these pin it. The golden hashes hold the whole
# marshalled Result of both partitions, the table reruns each under worker
# counts {1, 2, 4, 8}, the timeline's windowing and JSON layout are
# pinned, the N_h = 0 run must end with no inter-links, and
# every canned fault plan must compile to its pinned schedule. Every cell
# draws from the run's one vod.Picker: it must plan what a picker over the
# cell's own trace plans, and two goroutines drawing from it at once must
# each get the sequential plans (a race here is a lazily filled cache). A
# fault window is the fold of faults.Window.Apply: it must match a
# brute-force reference over 256 random plans, and the runner must hold
# that fold. A figure job's fault plan, timeline and load profile each
# reach the run that Scale.run starts. A session chain a
# crash and rejoin superseded must fire into nothing. Seconds, so they run
# before the minute-long suite.
go test -race -count=5 -run 'TestGoldenResults|TestDeterministicUnderSeed|TestShardedWorkerCountInvariance|TestSharedPickerDrawsAsCellPickers|TestTimeline|TestZeroInterLinkBudgetHoldsNoInterLinks|TestRunnerWindowIsTheFold|TestNestedOutageEqualsOuter|TestChaosWindowInSimulator|TestOrphanedChainStaysDead' ./internal/exp/
go test -race -count=5 -run 'TestCannedPlanSchedulesPinned|TestWindowMatchesReference|TestValidateRejectsBadPlans' ./internal/faults/
go test -race -count=5 -run 'TestRunCarriesJobOptionsToEitherPartition' ./internal/figures/

echo "== trace pin gate (generator golden bytes, partition vs reference) =="
# Every run starts from a generated trace and most from its partition. The
# generator's SaveStream bytes are pinned for five shapes (the 100k-user
# row too, so not -short), and the partition must match the per-cell
# reference filter byte for byte. Seconds.
go test -count=1 -run 'TestGenerateGoldenBytes|TestPartitionMatchesReference' ./internal/trace/

echo "== allocation guards (the !race tests, without -race) =="
# The race build compiles out every //go:build !race test: its
# instrumentation inflates allocation counts. These are all of them: heap
# budgets of a loaded or generated trace, of the picker's tables and of a
# run's cells and result, and the hot paths that must not allocate, the
# runner's session chain among them. Seconds.
go test -count=1 -run '^(TestLoadStreamHeapBudget|TestGenerateAllocBudget|TestGenerateAllocatesWhatItKeeps|TestHistObserveAllocFree|TestNetTubeProbeAndLinksAllocFree|TestFrameDrawAllocFree|TestWireAllocs|TestHostileListCountAllocatesNothing|TestParkedReaderPinsNoFrameBuffer|TestEngineSteadyStateAllocFree|TestLatencyAllocFree|TestTransferAllocFree|TestRequestAllocFreeAfterRepair|TestRequestAllocFreeWithOpenBreakers|TestRequestAllocFreeWithTelemetry|TestRequestStaysAllocFree|TestProbeAllocFree|TestFinishAllocFree|TestLeaveJoinAllocFree|TestMemberSetsAllocFree|TestRemoteLookupAllocFree|TestHeapHighWaterReportsThePeak|TestCellsCostTheirUsersNotTheCatalog|TestFinishedResultFootprint|TestTimelineRecordAllocFree|TestSessionChainAllocFree|TestFaultArmingAllocFree|TestNewPickerAllocatesWhatItKeeps)$' \
	./internal/trace/ ./internal/vod/ ./internal/obs/ ./internal/baseline/ ./internal/emu/ ./internal/sim/ ./internal/simnet/ ./internal/core/ ./internal/exp/

echo "== hot-path layout gate (cache fingerprint words, one mesh representation, index-free member sets, suspect-only pruning, event heap order; -race x5) =="
# A flood's hit test reads a node's fingerprint word before its cache, and
# every link-budget check reads a mesh's degree byte. Both are pinned against
# map models after every random step: the word is the OR of the held
# videos' bits (evictions included), and the mesh matches a map of
# neighbour sets in degree, order, fullness and symmetry. A member set keeps
# no index: with each slot held outside it, it must list and draw as the
# retired map-indexed set over 256 random sequences, and every slot the
# baselines hold must name its node through random churn. A probe prunes
# only a node a departure marked suspect: each protocol must run in
# lockstep with a full-prune copy over 200 random churn sequences, and no
# online node that is not suspect may link an offline one. The event heap
# must fire a random schedule in the (time, seq) order of a sorted
# reference list, across horizon and budget resumes. Seconds.
go test -race -count=5 -run 'TestCachesMatchMapModel' ./internal/vod/
go test -race -count=5 -run 'TestMeshMatchesSetModel|TestMeshBoundFitsDegree|TestMembersMatchMapModel' ./internal/overlay/
go test -race -count=5 -run 'TestProbeMatchesFullPrune' ./internal/core/
go test -race -count=5 -run 'TestNetTubeProbeMatchesFullPrune|TestMemberSlotsFollowChurn' ./internal/baseline/
go test -race -count=5 -run 'TestEngineOrderMatchesReference' ./internal/sim/

echo "== emulator wire, connection-reuse and node gate (-race x5) =="
# The frame format is pinned and round-trips, a frame with any byte flipped
# or a malformed body never decodes, and corrupted replies are RPC errors.
# Nodes keep connections open between RPCs: one socket per (caller,
# destination), reused for 30 ms after its last exchange and closed on both
# ends after that, a duplicated reply never answers the next request, a
# lost request is never re-sent, and Stop/Rejoin release every socket at
# once. A plan's events due at the start apply before any peer's first
# request. socialtube-node runs the same emulator one element per process:
# a -tracker spec with an empty shard or address is refused, two tracker
# elements of one 2x1 plane declare each other's shard dead once one stops
# and nothing while both run, however late the second starts, and a peer
# element requests what the same peer of an in-process cluster requests.
# A cluster and a tracker element seed every element from the one run
# seed alike, a lone replica keeps the config's gossip timing, and a
# tracker or peer element sent SIGTERM prints its summary and exits 0.
# The liveness detector gives a shard it has never heard from a grace of
# 20 suspicion windows, over 200 exchange orders per start delay, and
# declares one that never starts at exactly that bound.
go test -race -count=5 -run 'TestMessageRoundTrip|TestWireRoundTrip|TestCorruptFrameNeverDecodes|TestReadMessageRejectsMalformedBody|TestClientReusesOneConnection|TestIdleLifetime|TestReusedConnectionSkipsDuplicatedReply|TestDroppedRequestOnReusedConnectionFailsFast|TestStopAndRejoinReleaseConnections|TestChaosFrameFaults|TestEndpoint|TestNilConditionsRunPlanWindows|TestClusterSeedsEveryElement|TestReplicaKeepsPlaneTiming' ./internal/emu/
go test -race -count=5 -run 'TestLivenessStaggeredStartNoVerdict|TestLivenessNeverStartedShardDeclared' ./internal/ctrl/
go test -race -count=5 -run 'TestPlaneSpecValidation|TestCrossShardLivenessAcrossProcesses|TestStaggeredStartDeclaresNothing|TestPeerReplaysClusterPeer|TestTrackerAndPeerEndToEnd|TestTrackerElementSeedsAsCluster|TestTrackerElementExitsOnSIGTERM|TestPeerElementExitsOnSIGTERM' ./cmd/socialtube-node/

echo "== go test -race =="
go test -race ./...

echo "== wire-layer fuzz smoke (30s per target) =="
go test ./internal/emu -run '^$' -fuzz '^FuzzReadMessage$' -fuzztime 30s
go test ./internal/emu -run '^$' -fuzz '^FuzzDecodeBody$' -fuzztime 30s
go test ./internal/emu -run '^$' -fuzz '^FuzzHandleMessage$' -fuzztime 30s

echo "== short benchmarks (allocations) =="
go test -run '^$' -bench 'BenchmarkFlood|BenchmarkMeshConnect|BenchmarkNeighbors' -benchtime 100x -benchmem ./internal/overlay/
go test -run '^$' -bench 'BenchmarkRequest|BenchmarkProbe|BenchmarkEngine' -benchtime 100x -benchmem ./internal/core/ ./internal/sim/
go test -run '^$' -bench 'BenchmarkLatency|BenchmarkGenerate' -benchtime 100x -benchmem ./internal/simnet/ ./internal/trace/

echo "== category-partition bench smoke (1 worker vs GOMAXPROCS) =="
# Wall-clock for the same seeded workload on the sequential loop and the
# full worker pool; on multi-core runners a parallel-speedup regression
# shows up as the workers=max line drifting toward workers=1.
go test -run '^$' -bench 'BenchmarkShardedRun' -benchtime 2x ./internal/exp/

tracetmp=$(mktemp -d)
trap 'rm -rf "$tracetmp"' EXIT

echo "== scale sweep smoke (small N) =="
go run ./cmd/socialtube-sim -fig scale -bench-out "$tracetmp/BENCH_scale.json" > /dev/null
test -s "$tracetmp/BENCH_scale.json" || { echo "scale sweep emitted no bench points"; exit 1; }

echo "== trace schema (end-to-end golden validation) =="
go run ./cmd/socialtube-sim -fig 16a -trace-out "$tracetmp/run.jsonl" > /dev/null
go run ./cmd/socialtube-sim -trace-check "$tracetmp/run.jsonl"

echo "== span-linked trace view =="
# The same trace, grouped by request span: a freshly generated sim trace
# must contain spans (the engines stamp one per request since schema v2).
spans=$(go run ./cmd/socialtube-sim -trace-spans "$tracetmp/run.jsonl" -trace-max 10 | tail -1)
echo "$spans"
case "$spans" in
"# 0 spans" | "") echo "generated trace contains no request spans"; exit 1 ;;
esac

echo "== load figure smoke (tiny sweep, canonical-stable points) =="
# Same tiny sweep twice: every emitted line must carry a point, and the
# two runs must agree byte-for-byte once the run stamp and the point's env
# block (wall time) are stripped — the canonical form the
# determinism tests pin.
go run ./cmd/socialtube-sim -fig load -load-rps 3,18 -load-dur 20s \
	-bench-out "$tracetmp/BENCH_load_a.json" > /dev/null
go run ./cmd/socialtube-sim -fig load -load-rps 3,18 -load-dur 20s \
	-bench-out "$tracetmp/BENCH_load_b.json" > /dev/null
test -s "$tracetmp/BENCH_load_a.json" || { echo "load figure emitted no bench points"; exit 1; }
grep -v '"protocol":"' "$tracetmp/BENCH_load_a.json" \
	&& { echo "load bench file contains non-point lines"; exit 1; } || true
sed 's/"run":{[^}]*},//; s/,"env":{[^}]*}//' "$tracetmp/BENCH_load_a.json" > "$tracetmp/load_a.canon"
sed 's/"run":{[^}]*},//; s/,"env":{[^}]*}//' "$tracetmp/BENCH_load_b.json" > "$tracetmp/load_b.canon"
cmp -s "$tracetmp/load_a.canon" "$tracetmp/load_b.canon" \
	|| { echo "load bench points not canonical-stable across reruns"; exit 1; }

echo "== timeline figure smoke =="
go run ./cmd/socialtube-sim -fig timeline -bench-out "$tracetmp/BENCH_timeline.json" > /dev/null
test -s "$tracetmp/BENCH_timeline.json" || { echo "timeline figure emitted no bench points"; exit 1; }

echo "== prefetch figure smoke (model table, measured M sweep, counters) =="
go run ./cmd/socialtube-sim -fig prefetch > /dev/null

echo "== tracing overhead guard (BenchmarkRequest traced vs untraced) =="
# Min-of-3 ns/op for the bare and nop-traced request hot path: the tracing
# seam may cost at most ~10% and must stay at 0 allocs/op.
benchout=$(go test -run '^$' -bench '^(BenchmarkRequest|BenchmarkRequestTraced)$' \
	-count=3 -benchtime 2000x -benchmem ./internal/core/)
echo "$benchout"
echo "$benchout" | awk '
	$1 ~ /^BenchmarkRequestTraced(-|$)/ {
		if (tmin == 0 || $3 < tmin) tmin = $3
		if ($7 > allocs) allocs = $7
		next
	}
	$1 ~ /^BenchmarkRequest(-|$)/ { if (umin == 0 || $3 < umin) umin = $3 }
	END {
		if (umin == 0 || tmin == 0) { print "overhead guard: missing benchmark lines"; exit 1 }
		ratio = tmin / umin
		printf "untraced min %.0f ns/op, traced min %.0f ns/op, ratio %.3f\n", umin, tmin, ratio
		if (allocs > 0) { printf "traced request path allocates %d allocs/op, want 0\n", allocs; exit 1 }
		if (ratio > 1.10) { printf "tracing overhead %.1f%% exceeds the ~10%% budget\n", (ratio - 1) * 100; exit 1 }
	}'

echo "CI OK"
