package load

import (
	"math"
	"testing"
	"time"
)

func collect(t *testing.T, p *Profile) []Arrival {
	t.Helper()
	g, err := NewGen(p)
	if err != nil {
		t.Fatal(err)
	}
	var out []Arrival
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	if !g.Done() {
		t.Fatal("generator not done after exhaustion")
	}
	return out
}

func TestSteadyRateMatchesTarget(t *testing.T) {
	p := &Profile{Mode: Steady, Seed: 7, RPS: 50, Duration: 200 * time.Second}
	arr := collect(t, p)
	want := 50.0 * 200
	got := float64(len(arr))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("steady 50 rps x 200s: got %v arrivals, want ~%v", got, want)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatalf("arrivals out of order at %d: %v < %v", i, arr[i].At, arr[i-1].At)
		}
	}
}

func TestRampFrontBackHalves(t *testing.T) {
	p := &Profile{Mode: Ramp, Seed: 3, RPS: 10, EndRPS: 90, Duration: 400 * time.Second}
	arr := collect(t, p)
	half := p.Duration / 2
	var front, back int
	for _, a := range arr {
		if a.At < half {
			front++
		} else {
			back++
		}
	}
	// Linear 10→90 rps: first half averages 30 rps, second 70 rps.
	if front >= back {
		t.Fatalf("ramp should back-load arrivals: front %d, back %d", front, back)
	}
	ratio := float64(back) / float64(front)
	if ratio < 1.8 || ratio > 3.2 {
		t.Fatalf("ramp back/front ratio %v, want ~7/3", ratio)
	}
}

func TestSweepPlateaus(t *testing.T) {
	p := &Profile{Mode: Sweep, Seed: 9, RPS: 20, EndRPS: 80, Steps: 4, Duration: 400 * time.Second}
	// Plateau rates: 20, 40, 60, 80 over 100 s each.
	arr := collect(t, p)
	counts := make([]int, 4)
	for _, a := range arr {
		idx := int(a.At / (100 * time.Second))
		if idx > 3 {
			idx = 3
		}
		counts[idx]++
	}
	wants := []float64{2000, 4000, 6000, 8000}
	for i, w := range wants {
		if math.Abs(float64(counts[i])-w)/w > 0.1 {
			t.Fatalf("sweep plateau %d: got %d arrivals, want ~%v", i, counts[i], w)
		}
	}
}

func TestBurstWindow(t *testing.T) {
	p := &Profile{Mode: Burst, Seed: 5, RPS: 10, BurstRPS: 100,
		BurstAt: 100 * time.Second, BurstFor: 50 * time.Second, Duration: 300 * time.Second}
	arr := collect(t, p)
	var in, out int
	for _, a := range arr {
		if a.At >= p.BurstAt && a.At < p.BurstAt+p.BurstFor {
			in++
		} else {
			out++
		}
	}
	// 100 rps x 50s inside, 10 rps x 250s outside.
	if math.Abs(float64(in)-5000)/5000 > 0.1 || math.Abs(float64(out)-2500)/2500 > 0.1 {
		t.Fatalf("burst split in=%d out=%d, want ~5000/~2500", in, out)
	}
}

func TestDiurnalOscillates(t *testing.T) {
	p := &Profile{Mode: Diurnal, Seed: 11, RPS: 40, Swing: 0.8,
		Period: 200 * time.Second, Duration: 200 * time.Second}
	arr := collect(t, p)
	// sin > 0 over the first half period, < 0 over the second.
	var crest, trough int
	for _, a := range arr {
		if a.At < 100*time.Second {
			crest++
		} else {
			trough++
		}
	}
	if crest <= trough {
		t.Fatalf("diurnal crest %d should exceed trough %d", crest, trough)
	}
}

func TestFlashCrowdAttribution(t *testing.T) {
	p := &Profile{Mode: Steady, Seed: 13, RPS: 50, Duration: 300 * time.Second,
		Flash: &FlashCrowd{Channel: 2, At: 100 * time.Second, For: 100 * time.Second}}
	arr := collect(t, p)
	var flash int
	for _, a := range arr {
		if !a.Flash {
			continue
		}
		flash++
		if a.At < 100*time.Second || a.At >= 200*time.Second {
			t.Fatalf("flash arrival at %v outside the flash window", a.At)
		}
	}
	// Defaults: share 1%, multiplier 100 ⇒ flash rate ≈ 0.99·base ≈
	// 49.5 rps over 100 s.
	want := 50.0 * DefaultFlashShare * (DefaultFlashMultiplier - 1) * 100
	if math.Abs(float64(flash)-want)/want > 0.1 {
		t.Fatalf("flash arrivals %d, want ~%v", flash, want)
	}
}

func TestGenDeterminism(t *testing.T) {
	p := &Profile{Mode: Burst, Seed: 21, RPS: 30, BurstRPS: 90,
		BurstAt: 50 * time.Second, BurstFor: 20 * time.Second, Duration: 200 * time.Second,
		Flash: &FlashCrowd{Channel: 0, At: 10 * time.Second, For: 30 * time.Second}}
	a := collect(t, p)
	b := collect(t, p)
	if len(a) != len(b) {
		t.Fatalf("rerun length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rerun diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []*Profile{
		{Mode: Steady, RPS: 0, Duration: time.Second},
		{Mode: Steady, RPS: 5, Duration: 0},
		{Mode: "squarewave", RPS: 5, Duration: time.Second},
		{Mode: Sweep, RPS: 5, EndRPS: 10, Steps: 1, Duration: time.Second},
		{Mode: Burst, RPS: 5, BurstRPS: 0, BurstFor: time.Second, Duration: 2 * time.Second},
		{Mode: Burst, RPS: 5, BurstRPS: 10, BurstFor: time.Second, BurstAt: 3 * time.Second, Duration: 2 * time.Second},
		{Mode: Diurnal, RPS: 5, Period: 0, Duration: time.Second},
		{Mode: Diurnal, RPS: 5, Period: time.Second, Swing: 1.5, Duration: time.Second},
		{Mode: Steady, RPS: 5, Duration: time.Second, Flash: &FlashCrowd{Channel: -1, For: time.Second}},
		{Mode: Steady, RPS: 5, Duration: time.Second, Flash: &FlashCrowd{For: 0}},
		{Mode: Steady, RPS: 5, Duration: time.Second, Flash: &FlashCrowd{For: time.Second, At: 2 * time.Second}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d validated but should not have: %+v", i, p)
		}
	}
	good := &Profile{Mode: Diurnal, RPS: 5, Period: time.Minute, Swing: 0.5, Duration: time.Minute}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
}
