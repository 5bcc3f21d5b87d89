package faults

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func stressPlan(seed int64) *Plan {
	return &Plan{
		Seed:        seed,
		DetectDelay: 30 * time.Second,
		Waves: []ChurnWave{
			{At: time.Minute, Spread: 30 * time.Second, Fraction: 0.3, DownFor: 2 * time.Minute},
			{At: 5 * time.Minute, Count: 3},
		},
		Bursts:  []LinkBurst{{At: 3 * time.Minute, Duration: time.Minute, LatencyFactor: 3, LossP: 0.25}},
		Outages: []Outage{{At: 2 * time.Minute, Duration: time.Minute}},
	}
}

// chaosPlan is the wire-fault stress the chaos tests compile: one window
// mixing corrupted, truncated, duplicated and stalled frames.
func chaosPlan(seed int64, unit time.Duration) *Plan {
	return &Plan{
		Seed: seed,
		Chaos: []ChaosBurst{
			{At: unit, Duration: 2 * unit,
				CorruptP: 0.1, TruncateP: 0.05, DuplicateP: 0.05,
				StallP: 0.05, StallFor: unit / 2},
		},
	}
}

// TestCannedPlanSchedulesPinned hashes the compiled schedule of every
// canned plan a figure or test replays, one line per event with the kind
// by name, so renumbering Kind moves no hash while moving, adding or
// dropping any event does.
func TestCannedPlanSchedulesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		plan *Plan
		want string
	}{
		{"churn", ChurnPlan(7, time.Minute), "2262ade0bfd3b8609d71387491f475422fbf226d30f720faaf4ce13334e2670c"},
		{"outage", OutagePlan(7, time.Minute), "a78b59d6f98d0b93aa6d8fc28b155dcde2b96fc07e4ef5431aab2a32eb84877e"},
		{"replica-outage", ReplicaOutagePlan(7, time.Minute, 2, 1), "678b501e85b1f5758c9d5921617592113b08a36fa8e1447f24d92fd9a02ddc64"},
		{"shard-outage", ShardOutagePlan(7, time.Minute, 1), "8293b8c4cbf5c357c514b5b94bd1bfe2815d82bc873a14b9c1c0b05f746c1153"},
		{"partition", PartitionPlan(7, time.Minute, 2), "a670016a6a197394380314e99b123b7e57111938e91a3b43f9abacd931593e8b"},
		{"chaos", chaosPlan(7, time.Minute), "6a9daed43636e00725f6ca6cca2184b9ca18085e1fb7956ac37e0bef751d67ad"},
	} {
		s, err := c.plan.Compile(50)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		for _, ev := range s.Events {
			fmt.Fprintf(h, "%d %s %d | %d %d %g %g | %d %d | %g %g %g %g %d | %d\n",
				ev.At, ev.Kind, ev.Node, ev.CrashedAt, ev.Until, ev.LatencyFactor, ev.LossP,
				ev.Shard, ev.Replica, ev.CorruptP, ev.TruncateP, ev.DuplicateP, ev.StallP, ev.StallFor, ev.Groups)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: %d events hash to %s, pinned %s", c.name, len(s.Events), got, c.want)
		}
	}
}

// TestCompileDeterministic pins the core contract: the same plan and
// node count compile to a byte-identical schedule every time.
func TestCompileDeterministic(t *testing.T) {
	a, err := stressPlan(7).Compile(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stressPlan(7).Compile(100)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("same seed compiled to different schedules:\n%s\nvs\n%s", ja, jb)
	}
	if len(a.Events) == 0 {
		t.Fatal("stress plan compiled to an empty schedule")
	}
}

// TestCompileSeedMatters guards against the RNG being ignored.
func TestCompileSeedMatters(t *testing.T) {
	a, err := stressPlan(1).Compile(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stressPlan(2).Compile(100)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) == string(jb) {
		t.Fatal("different seeds compiled to identical schedules")
	}
}

func TestCompileOrderingAndPairing(t *testing.T) {
	s, err := stressPlan(3).Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := make(map[int]time.Duration)
	var last time.Duration
	for i, ev := range s.Events {
		if ev.At < last {
			t.Fatalf("event %d at %v fires before predecessor at %v", i, ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case KindCrash:
			crashAt[ev.Node] = ev.At
		case KindRejoin:
			at, ok := crashAt[ev.Node]
			if !ok {
				t.Fatalf("node %d rejoins without crashing", ev.Node)
			}
			if ev.At <= at {
				t.Fatalf("node %d rejoins at %v, before its crash at %v", ev.Node, ev.At, at)
			}
		case KindRepair:
			at, ok := crashAt[ev.Node]
			if !ok {
				t.Fatalf("repair for node %d without a crash", ev.Node)
			}
			if ev.CrashedAt != at {
				t.Fatalf("repair CrashedAt %v != crash time %v", ev.CrashedAt, at)
			}
			if ev.At <= at {
				t.Fatalf("repair fires at %v, not after the crash at %v", ev.At, at)
			}
		case KindBurstStart, KindOutageStart:
			if ev.Until <= ev.At {
				t.Fatalf("%v window closes at %v, not after it opens at %v", ev.Kind, ev.Until, ev.At)
			}
		}
	}
	if s.Crashes == 0 {
		t.Fatal("no crashes compiled")
	}
}

func TestCompileFractionCeil(t *testing.T) {
	p := &Plan{Seed: 1, Waves: []ChurnWave{{At: time.Second, Fraction: 0.5}}}
	s, err := p.Compile(7)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.5 * 7) = 4.
	if s.Crashes != 4 {
		t.Fatalf("want 4 crashes from Fraction 0.5 of 7 nodes, got %d", s.Crashes)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []*Plan{
		{DetectDelay: -time.Second},
		{Waves: []ChurnWave{{At: -time.Second, Count: 1}}},
		{Waves: []ChurnWave{{At: time.Second}}},                                              // no Count, no Fraction
		{Waves: []ChurnWave{{At: time.Second, Fraction: 1.5}}},                               // Fraction > 1
		{Bursts: []LinkBurst{{At: time.Second}}},                                             // zero duration
		{Bursts: []LinkBurst{{At: 0, Duration: time.Second, LossP: 2}}},                      // LossP > 1
		{Outages: []Outage{{At: 0}}},                                                         // zero duration
		{Chaos: []ChaosBurst{{At: 0, CorruptP: 0.1}}},                                        // zero duration
		{Chaos: []ChaosBurst{{At: 0, Duration: time.Second}}},                                // injects nothing
		{Chaos: []ChaosBurst{{At: 0, Duration: time.Second, CorruptP: 1.5}}},                 // P > 1
		{Chaos: []ChaosBurst{{At: 0, Duration: time.Second, CorruptP: 0.6, TruncateP: 0.6}}}, // sum > 1
		{Chaos: []ChaosBurst{{At: 0, Duration: time.Second, StallP: 0.5}}},                   // stall without StallFor
		{Partitions: []Partition{{At: 0, Groups: 2}}},                                        // zero duration
		{Partitions: []Partition{{At: 0, Duration: time.Second, Groups: 1}}},                 // one side is no cut
		{Partitions: []Partition{{At: -time.Second, Duration: time.Second, Groups: 2}}},      // negative At
		// One burst, chaos window and partition is open at a time.
		{Bursts: []LinkBurst{{At: 0, Duration: 20 * time.Minute}, {At: time.Minute, Duration: 2 * time.Minute}}},
		{Chaos: []ChaosBurst{{At: 0, Duration: 2 * time.Second, CorruptP: 0.1}, {At: time.Second, Duration: 2 * time.Second, DuplicateP: 0.1}}},
		{Partitions: []Partition{{At: time.Second, Duration: time.Second, Groups: 2}, {At: 0, Duration: 3 * time.Second, Groups: 3}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
		if _, err := p.Compile(10); err == nil {
			t.Errorf("bad plan %d compiled", i)
		}
	}
	if _, err := (&Plan{Waves: []ChurnWave{{Count: 1}}}).Compile(0); err == nil {
		t.Error("compile against zero nodes accepted")
	}
}

func TestHelperPlansCompile(t *testing.T) {
	for name, p := range map[string]*Plan{
		"churn":  ChurnPlan(9, time.Minute),
		"outage": OutagePlan(9, time.Minute),
	} {
		s, err := p.Compile(50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Crashes == 0 || len(s.Events) <= s.Crashes {
			t.Fatalf("%s: degenerate schedule (%d events, %d crashes)", name, len(s.Events), s.Crashes)
		}
	}

	// chaosPlan compiles to one paired chaos window carrying the mix.
	cs, err := chaosPlan(9, time.Minute).Compile(8)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if len(cs.Events) != 2 {
		t.Fatalf("chaos: want start/end pair, got %d events", len(cs.Events))
	}
	start, end := cs.Events[0], cs.Events[1]
	if start.Kind != KindChaosStart || end.Kind != KindChaosEnd {
		t.Fatalf("chaos: kinds = %v, %v", start.Kind, end.Kind)
	}
	if start.Until != end.At || start.Until <= start.At {
		t.Fatalf("chaos: window [%v, until %v] vs end at %v", start.At, start.Until, end.At)
	}
	if start.CorruptP <= 0 || start.TruncateP <= 0 || start.DuplicateP <= 0 || start.StallP <= 0 || start.StallFor <= 0 {
		t.Fatalf("chaos: parameters not carried: %+v", start)
	}
}

// TestReplicaOutageTargeting pins the control-plane addressing added for
// the sharded tracker: shard/replica targets survive compilation on both
// the start and end events, and a targetless plan's wire form stays
// byte-identical to the pre-sharding schema (omitempty fields).
func TestReplicaOutageTargeting(t *testing.T) {
	plan := ReplicaOutagePlan(3, time.Minute, 2, 1)
	sched, err := plan.Compile(10)
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends int
	for _, ev := range sched.Events {
		switch ev.Kind {
		case KindOutageStart:
			starts++
		case KindOutageEnd:
			ends++
		default:
			continue
		}
		if ev.Shard != 2 || ev.Replica != 1 {
			t.Fatalf("%s lost its target: shard %d replica %d", ev.Kind, ev.Shard, ev.Replica)
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("replica outage compiled to %d starts / %d ends", starts, ends)
	}

	// A legacy whole-plane outage event must serialize without any
	// shard/replica keys at all, so archived schedules stay comparable.
	legacy, err := (&Plan{Seed: 1, Outages: []Outage{{At: time.Minute, Duration: time.Minute}}}).Compile(10)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shard", "replica"} {
		if bytes.Contains(j, []byte(`"`+key+`"`)) {
			t.Fatalf("legacy schedule wire form grew a %q field:\n%s", key, j)
		}
	}
}

// TestValidateRejectsBadTargets covers the new Outage target rules: no
// negative indices, and a replica target needs a shard to live in.
func TestValidateRejectsBadTargets(t *testing.T) {
	for name, o := range map[string]Outage{
		"negative shard":        {At: time.Minute, Duration: time.Minute, Shard: -1},
		"negative replica":      {At: time.Minute, Duration: time.Minute, Replica: -1},
		"replica without shard": {At: time.Minute, Duration: time.Minute, Replica: 2},
	} {
		p := &Plan{Seed: 1, Outages: []Outage{o}}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, o)
		}
	}
	ok := &Plan{Seed: 1, Outages: []Outage{{At: time.Minute, Duration: time.Minute, Shard: 1, Replica: 2}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid target rejected: %v", err)
	}
}

// TestPartitionCompile pins the split-brain window added for the
// partition-tolerant control plane: Groups survives compilation on both
// the start and end events, the helper plans compile to sane schedules,
// and a partitionless plan's wire form never mentions the new field.
func TestPartitionCompile(t *testing.T) {
	sched, err := PartitionPlan(5, time.Minute, 2).Compile(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 2 {
		t.Fatalf("partition plan compiled to %d events", len(sched.Events))
	}
	start, end := sched.Events[0], sched.Events[1]
	if start.Kind != KindPartitionStart || end.Kind != KindPartitionEnd {
		t.Fatalf("kinds = %v, %v", start.Kind, end.Kind)
	}
	if start.Groups != 2 || end.Groups != 2 {
		t.Fatalf("partition lost its side count: start %d end %d", start.Groups, end.Groups)
	}
	if start.Until != end.At || start.Until <= start.At {
		t.Fatalf("window [%v, until %v] vs end at %v", start.At, start.Until, end.At)
	}

	// ShardOutagePlan darkens every replica of the shard: Replica stays 0.
	ss, err := ShardOutagePlan(5, time.Minute, 1).Compile(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Events) != 2 {
		t.Fatalf("shard outage compiled to %d events", len(ss.Events))
	}
	for _, ev := range ss.Events {
		if ev.Shard != 1 || ev.Replica != 0 {
			t.Fatalf("%s targeting: shard %d replica %d", ev.Kind, ev.Shard, ev.Replica)
		}
	}

	// A partitionless schedule must serialize without any groups key, so
	// archived schedules stay byte-comparable.
	legacy, err := OutagePlan(5, time.Minute).Compile(10)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(j, []byte(`"groups"`)) {
		t.Fatalf("legacy schedule wire form grew a groups field:\n%s", j)
	}
}
