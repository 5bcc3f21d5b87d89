package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"github.com/socialtube/socialtube/internal/faults"
	"github.com/socialtube/socialtube/internal/load"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/vod"
)

// goldenVariant is one option set a golden run is taken under.
type goldenVariant struct {
	name   string
	window time.Duration
	prof   *load.Profile
	// horizon, when set, cuts the run short of draining, so the hash pins
	// the horizon-return clock as well as the drained one.
	horizon time.Duration
}

func goldenVariants() []goldenVariant {
	prof := &load.Profile{
		Mode: load.Burst, Seed: 3, RPS: 6, BurstRPS: 30,
		BurstAt: 20 * time.Second, BurstFor: 10 * time.Second,
		Duration: 60 * time.Second,
		Flash:    &load.FlashCrowd{Channel: 2, At: 10 * time.Second, For: 15 * time.Second},
	}
	return []goldenVariant{
		{name: "plain"},
		{name: "horizon", horizon: 10 * time.Minute},
		{name: "timeline", window: 30 * time.Minute},
		{name: "load", prof: prof},
		{name: "timeline+load", window: 20 * time.Second, prof: prof},
	}
}

func resultDigest(t *testing.T, res *Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("golden run issued no requests")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// goldenColumns heads the rows of testdata/golden.txt. The w* columns sum
// a timeline's windows and read "-" for a run that records none.
var goldenColumns = []string{
	"run", "requests", "cache", "peer", "server", "hitsChan", "hitsCat", "hitsAssist",
	"serverBytes", "peerBytes", "p50ms", "p99ms", "linksLast", "msgsPerReq",
	"simTime", "events", "traceBytes",
	"windows", "wRequests", "wCache", "wPeer", "wServer", "wStartups", "wServerBytes", "wOpens", "wOffered", "wShed",
}

// goldenRow is the readable summary of one golden run, one field per
// goldenColumns entry.
func goldenRow(name string, res *Result) []string {
	last := &res.LinksByVideoIndex[len(res.LinksByVideoIndex)-1]
	row := []string{name}
	for _, v := range []any{
		res.Requests, res.CacheHits.Value(), res.PeerHits.Value(), res.ServerHits.Value(),
		res.Obs.HitsChannel, res.Obs.HitsCategory, res.Obs.HitsServerAssist,
		res.ServerBytes, res.PeerBytes,
		fmt.Sprintf("%.3f", res.StartupDelay.Percentile(50)), fmt.Sprintf("%.3f", res.StartupDelay.Percentile(99)),
		fmt.Sprintf("%.4f", last.Mean()), fmt.Sprintf("%.4f", float64(res.Messages.Value())/float64(res.Requests)),
		res.SimulatedTime, res.Engine.EventsFired, res.Mem.TraceBytes,
	} {
		row = append(row, fmt.Sprint(v))
	}
	tl := res.Timeline
	if tl == nil {
		for len(row) < len(goldenColumns) {
			row = append(row, "-")
		}
		return row
	}
	var sum Window
	for i := range tl.Windows {
		w := &tl.Windows[i]
		sum.Requests += w.Requests
		sum.CacheHits += w.CacheHits
		sum.PeerHits += w.PeerHits
		sum.ServerHits += w.ServerHits
		sum.StartupMs.Merge(&w.StartupMs)
		sum.ServerBytes += w.ServerBytes
		sum.BreakerOpens += w.BreakerOpens
		sum.Offered += w.Offered
		sum.ServerShed += w.ServerShed
	}
	for _, v := range []any{len(tl.Windows), sum.Requests, sum.CacheHits, sum.PeerHits, sum.ServerHits,
		sum.StartupMs.Len(), sum.ServerBytes, sum.BreakerOpens, sum.Offered, sum.ServerShed} {
		row = append(row, fmt.Sprint(v))
	}
	return row
}

// formatGolden renders rows, sorted by run name, under goldenColumns as
// an aligned table.
func formatGolden(rows [][]string) string {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{goldenColumns}, rows...) {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}

// goldenDiff lists, field by field, where the fresh table got differs
// from the committed table want; empty when they agree.
func goldenDiff(want, got string) string {
	parse := func(table string) (cols, names []string, rows map[string][]string) {
		rows = map[string][]string{}
		for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) == 0:
			case cols == nil:
				cols = f
			default:
				names = append(names, f[0])
				rows[f[0]] = f
			}
		}
		return cols, names, rows
	}
	wantCols, wantNames, wantRows := parse(want)
	gotCols, gotNames, gotRows := parse(got)
	var b strings.Builder
	if !slices.Equal(wantCols, gotCols) {
		fmt.Fprintf(&b, "columns: %v -> %v\n", wantCols, gotCols)
	}
	for _, name := range gotNames {
		w, ok := wantRows[name]
		switch {
		case !ok:
			fmt.Fprintf(&b, "%s: new row\n", name)
		case len(w) != len(gotRows[name]):
			fmt.Fprintf(&b, "%s: %d fields -> %d\n", name, len(w), len(gotRows[name]))
		default:
			for i, v := range gotRows[name] {
				if w[i] != v {
					fmt.Fprintf(&b, "%s: %s %s -> %s\n", name, gotCols[i], w[i], v)
				}
			}
		}
	}
	for _, name := range wantNames {
		if _, ok := gotRows[name]; !ok {
			fmt.Fprintf(&b, "%s: row gone\n", name)
		}
	}
	return b.String()
}

// checkConservation fails t unless res accounts for every request: each
// is a cache, peer or server hit or was shed, each server-bound one was
// admitted or shed, and under a load profile each arrival became a
// request unless every node was busy. A category-partition run cut at its
// horizon may leave lookups in flight to a home community: counted as
// requests, they are neither served nor shed, and at most the forwarded
// lookups that found no provider.
func checkConservation(t *testing.T, name string, res *Result, cut bool) {
	t.Helper()
	shed := int64(res.Obs.ServerShed)
	open := res.Requests - res.Delivered() - shed
	var openBound int64
	if s := res.Sharded; s != nil && cut {
		openBound = s.RemoteLookups - s.RemoteHits
	}
	if open < 0 || open > openBound {
		t.Errorf("%s: requests %d != cache+peer+server %d + shed %d + in flight (at most %d)",
			name, res.Requests, res.Delivered(), shed, openBound)
	}
	bound := res.Requests - res.CacheHits.Value() - res.PeerHits.Value() - open
	if admitted := int64(res.Obs.ServerAdmitted); admitted+shed != bound {
		t.Errorf("%s: admitted %d + shed %d != server-bound requests %d", name, admitted, shed, bound)
	}
	if l := res.Load; l != nil {
		if l.Offered != l.Busy+res.Requests {
			t.Errorf("%s: offered %d != busy %d + requests %d", name, l.Offered, l.Busy, res.Requests)
		}
		if l.ServerAdmitted+l.ServerShed != bound {
			t.Errorf("%s: load block admitted %d + shed %d != server-bound requests %d", name, l.ServerAdmitted, l.ServerShed, bound)
		}
	}
}

// TestGoldenResults pins every golden run twice: as the sha-256 of the
// whole marshalled Result (simulatedTimeNanos, engine stats, timelines,
// load block and the presence or absence of the sharded block included),
// and as a readable row of testdata/golden.txt, so a moved hash comes
// with the fields that moved. The runs are the three protocols on the
// identity partition (Run/RunCtx), each plain, cut at a horizon, with a
// timeline, with an open-loop profile and with both; SocialTube on the
// category partition (RunSharded) plain and cut at a horizon; and one
// churn-plan run. Every run must also conserve its requests. The rows
// back every table in EXPERIMENTS.md: a change that moves one must show
// its row diff, and a change that moves only hashes must leave the rows
// alone.
func TestGoldenResults(t *testing.T) {
	tr := expTrace(t)
	netCfg := simnet.DefaultConfig()
	netCfg.ServerQueueCap = 8
	protos := []struct {
		name  string
		build func() vod.Protocol
	}{
		{"SocialTube", func() vod.Protocol { return socialTube(t, tr) }},
		{"NetTube", func() vod.Protocol { return netTube(t, tr) }},
		{"PA-VoD", func() vod.Protocol { return paVoD(t, tr) }},
	}
	got := map[string]string{}
	var rows [][]string
	file := func(name string, res *Result, err error, cut bool) {
		t.Helper()
		got[name] = resultDigest(t, res, err)
		rows = append(rows, goldenRow(name, res))
		checkConservation(t, name, res, cut)
	}
	for _, v := range goldenVariants() {
		cfg := quickConfig()
		if v.prof != nil {
			cfg = openLoopConfig()
		}
		if v.horizon > 0 {
			cfg.Horizon = v.horizon
		}
		for _, p := range protos {
			res, err := RunCtx(t.Context(), cfg, tr, p.build(), netCfg,
				Options{TimelineWindow: v.window, Load: v.prof})
			if res != nil && res.Sharded != nil {
				t.Fatalf("identity/%s/%s carries a sharded block", p.name, v.name)
			}
			file("identity/"+p.name+"/"+v.name, res, err, v.horizon > 0)
		}
		if v.window > 0 || v.prof != nil {
			continue
		}
		res, err := RunSharded(cfg, tr, socialTubeFactory(1), netCfg, ShardedOptions{Workers: 2})
		if res != nil && res.Sharded == nil {
			t.Fatalf("category/SocialTube/%s carries no sharded block", v.name)
		}
		file("category/SocialTube/"+v.name, res, err, v.horizon > 0)
	}
	res, err := RunCtx(t.Context(), quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(),
		Options{Faults: faults.ChurnPlan(1, 2*time.Minute), TimelineWindow: 2 * time.Minute})
	if err == nil && res.Resilience.Crashes == 0 {
		t.Fatal("churn plan crashed nobody")
	}
	file("identity/SocialTube/churn", res, err, false)

	want := map[string]string{
		"category/SocialTube/horizon":       "4ee2e8a5f2f2cd124a3f65c74b5a739575a8bf5ec7c0e9956b1ddcb60a1539fc",
		"category/SocialTube/plain":         "9337f94bef78d49c95e9f4590875bd1a12a90f702ac8c669593329ec0aa50e7b",
		"identity/NetTube/horizon":          "8f1d7919e42e92d59666345e06a35d35d29c5fffc0bc59dd642dbfdd1809e316",
		"identity/NetTube/load":             "11c072b03c0eeb94d383317bb0550e90a4a05f5de619b07b49aab2e3be17f0a4",
		"identity/NetTube/plain":            "4645736a4d918e636e2b256cdc2c1cd5ea328450ff5d05fb96d010b95cd3465d",
		"identity/NetTube/timeline":         "0ef8a3cb749e3b74fc4a96ca499468631a578ee5ba15f8398bbe6cfe25de3f0f",
		"identity/NetTube/timeline+load":    "8584ec313733b6f9634ba8ea638e44382b22160427409928ad01735179d4a795",
		"identity/PA-VoD/horizon":           "1fc31fdf1b46c867850f7e57517bc2c123a8eb67a5dd3d1ee6a8c12d9e528d86",
		"identity/PA-VoD/load":              "99a702b0b1f8239c27e0fc3a7676f71483aa29a9d94b55b8e7542e271d7a76ce",
		"identity/PA-VoD/plain":             "d282b37224435d1f3a0556611d6f912e57c45c742e7a33eaa3d49d074b73bfe9",
		"identity/PA-VoD/timeline":          "33fc56fbdb38fab7352c73cd26b3204a5161fc70ee7ca373050f6c5ff83aaf66",
		"identity/PA-VoD/timeline+load":     "a9a9eb3a237956dc4bd39e613e0c9fb8b7d45d734b3be7ac08f80322accea893",
		"identity/SocialTube/churn":         "7f0cbdb4b96c69a3ef689dca690d1ef6670d698032fd20cf5380d7795cd798ec",
		"identity/SocialTube/horizon":       "24555236befd36660ff06aac0602baca000c46e543613dc521820c9f0669145c",
		"identity/SocialTube/load":          "8001e9a5a830a5dba1bad2087d684ff2f6faf09c21b6fc0be4c6318766d883ca",
		"identity/SocialTube/plain":         "fa51cd3a0d876738f0f807cd4c62910e77544daf72e863f5fa5b1866d7aacc37",
		"identity/SocialTube/timeline":      "3348b6ef74fac9867c750c8accdb973ea2ee7c501dcc637b108b8ed0fb035902",
		"identity/SocialTube/timeline+load": "92bfbde747f847250f9ec6d98d05e04697685a03654a0fd7822ef77399f7b745",
	}
	if len(got) != len(want) {
		t.Errorf("%d golden runs, %d pinned hashes", len(got), len(want))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%q: %q,", name, sum)
		}
	}
	committed, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Error(err)
	}
	if fresh := formatGolden(rows); string(committed) != fresh {
		t.Errorf("golden rows moved:\n%s\nfresh testdata/golden.txt:\n%s", goldenDiff(string(committed), fresh), fresh)
	}
}
