package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
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

// TestGoldenResults pins the sha-256 of the whole marshalled Result —
// simulatedTimeNanos, engine stats, timelines, load block and the presence
// or absence of the sharded block included — for the three protocols on
// the identity partition (Run/RunCtx), each plain, cut at a horizon, with
// a timeline, with an open-loop profile and with both, for SocialTube on
// the category partition (RunSharded) plain and cut at a horizon — the
// only runs it takes — plus one churn-plan run. The hashes were taken at
// the commit before the two drivers were merged into one; they back every
// table in EXPERIMENTS.md, so a refactor of the driver must not move them.
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
			got["identity/"+p.name+"/"+v.name] = resultDigest(t, res, err)
		}
		if v.window > 0 || v.prof != nil {
			continue
		}
		res, err := RunSharded(cfg, tr, socialTubeFactory(1), netCfg, ShardedOptions{Workers: 2})
		if res != nil && res.Sharded == nil {
			t.Fatalf("category/SocialTube/%s carries no sharded block", v.name)
		}
		got["category/SocialTube/"+v.name] = resultDigest(t, res, err)
	}
	res, err := RunCtx(t.Context(), quickConfig(), tr, socialTube(t, tr), simnet.DefaultConfig(),
		Options{Faults: faults.ChurnPlan(1, 2*time.Minute), TimelineWindow: 2 * time.Minute})
	if err == nil && res.Resilience.Crashes == 0 {
		t.Fatal("churn plan crashed nobody")
	}
	got["identity/SocialTube/churn"] = resultDigest(t, res, err)

	want := map[string]string{
		"category/SocialTube/horizon":       "98929cd1306ccb53afc88947e9b11a98c1addc93c06b5e7e80e6851c9c3b307e",
		"category/SocialTube/plain":         "f93b71a5dfa743deb73b7f88d99a67fc90ded6c7ea9b0f5de9ca11e6130a8e8f",
		"identity/NetTube/horizon":          "bebc860910481750ca2e35ffcbc674e3c984c870f5d084d2302e5a67049db7a7",
		"identity/NetTube/load":             "00212d5c5ca2e19ab6d9a5f8c24c1bc44715b23e61ab39e70732630023d1ecf8",
		"identity/NetTube/plain":            "dcded36cb81875b5e066d1213f61298f60eb24d6d00013ada6916c2208617f27",
		"identity/NetTube/timeline":         "cf5fd64a2e1935e9a6f064f2073d86b95b9be450731dd9131238c7786e228145",
		"identity/NetTube/timeline+load":    "a7ad32400d5a13c8f86ecc039ec98cfdcb30476beaa44dc578a9673ed18933c1",
		"identity/PA-VoD/horizon":           "52fad9c8d6b0708666eeea971eb88aee06a468e6e5a32b1138b91198ff903c58",
		"identity/PA-VoD/load":              "b26a29a20464e73cdafadf73e09abcbf609fd849cf4f7e9e9b48054f42a4076e",
		"identity/PA-VoD/plain":             "e41dbba737f9158b49d808d59769bc5e6448864dbeab00aa3839bfde6f906ec2",
		"identity/PA-VoD/timeline":          "23b20c8be691e67ed44a178cf1bd3e24a0f6d3301634daffd8d98aa2e4b79ccb",
		"identity/PA-VoD/timeline+load":     "1f9627934a6e8d436a63e504eb977ec961792fb085a3c666c05767705dc228d6",
		"identity/SocialTube/churn":         "651ea053e008e7ca756486f69bf2eefd626eb98839562ea6d9474b8532e2a628",
		"identity/SocialTube/horizon":       "0ca8d0e8f3de4181c0b0076592e873900e55a0ba5bca093da6fed6ee21c53782",
		"identity/SocialTube/load":          "71c6100b4f46a217045914b07490e2e9e88dc748701ad194e41d9cf1775818c4",
		"identity/SocialTube/plain":         "0968c776f2bd4c13fd7ddc5dac27f2514c4770c1cbbbae985b74ed64796fbb9a",
		"identity/SocialTube/timeline":      "7ee82e27181f5796b69fab463d7d680374f64613f23e0717372ac97aa8940859",
		"identity/SocialTube/timeline+load": "09754db01b76b75cd3e65c929f167aa10c1daf0ac14aa7277730cf35be3ffd65",
	}
	if len(got) != len(want) {
		t.Errorf("%d golden runs, %d pinned hashes", len(got), len(want))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%q: %q,", name, sum)
		}
	}
}
