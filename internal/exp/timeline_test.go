package exp

import (
	"encoding/json"
	"testing"
	"time"
)

// timelineSample is one recorded request: issue time, startup delay and
// the server bytes it caused.
type timelineSample struct {
	at        time.Duration
	startupMs float64
	bytes     int64
}

func buildTimeline(samples []timelineSample) *Timeline {
	tl := &Timeline{Width: time.Minute}
	for _, s := range samples {
		w := tl.at(s.at)
		w.Requests++
		w.ServerHits++
		w.StartupMs.Add(s.startupMs)
		w.ServerBytes += s.bytes
	}
	return tl
}

func TestTimelineWindowing(t *testing.T) {
	tl := &Timeline{Width: time.Minute}
	tl.at(-time.Second).Requests++ // before the clock starts: window 0
	tl.at(59*time.Second).Requests++
	tl.at(60*time.Second).Requests++
	tl.at(5 * time.Minute).Requests += 2
	if got := len(tl.Windows); got != 6 {
		t.Fatalf("%d windows, want 6", got)
	}
	for i, want := range []int64{2, 1, 0, 0, 0, 2} {
		if got := tl.Windows[i].Requests; got != want {
			t.Fatalf("window %d = %d, want %d", i, got, want)
		}
	}
}

func TestTimelineHistSeries(t *testing.T) {
	tl := buildTimeline([]timelineSample{{at: 10 * time.Second, startupMs: 100}, {at: 20 * time.Second, startupMs: 200}, {at: 90 * time.Second, startupMs: 400}})
	tl.at(5*time.Minute).Requests++
	if got := tl.Windows[0].StartupMs.Len(); got != 2 {
		t.Fatalf("window 0 holds %d observations, want 2", got)
	}
	if got := tl.Windows[1].StartupMs.Len(); got != 1 {
		t.Fatalf("window 1 holds %d observations, want 1", got)
	}
	for i := 2; i < len(tl.Windows); i++ {
		if tl.Windows[i].StartupMs.Len() != 0 {
			t.Fatalf("window %d observed nothing but its histogram is not empty", i)
		}
	}
}

// TestTimelineJSONShape pins the wire layout Result carries: the nine
// columns in a fixed order, each padded to the window count, with null
// for a window whose startup histogram is empty.
func TestTimelineJSONShape(t *testing.T) {
	tl := &Timeline{Width: time.Minute}
	w := tl.at(30 * time.Second)
	w.Requests, w.PeerHits, w.ServerHits, w.ServerBytes, w.BreakerOpens, w.Offered = 2, 1, 1, 4096, 1, 2
	w.StartupMs.Add(120)
	w = tl.at(150 * time.Second)
	w.Requests, w.CacheHits, w.ServerShed, w.Offered = 2, 1, 1, 3
	got, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"windowMs":60000,"windows":3,"series":[` +
		`{"name":"requests","kind":"counter","values":[2,0,2]},` +
		`{"name":"cacheHits","kind":"counter","values":[0,0,1]},` +
		`{"name":"peerHits","kind":"counter","values":[1,0,0]},` +
		`{"name":"serverHits","kind":"counter","values":[1,0,0]},` +
		`{"name":"startupDelayMs","kind":"hist","windows":[{"count":1,"mean":120,"p1":120,"p25":120,"p50":120,"p75":120,"p90":120,"p99":120,"min":120,"max":120},null,null]},` +
		`{"name":"serverBytes","kind":"counter","values":[4096,0,0]},` +
		`{"name":"breakerOpens","kind":"counter","values":[1,0,0]},` +
		`{"name":"offered","kind":"counter","values":[2,0,3]},` +
		`{"name":"serverShed","kind":"counter","values":[0,0,1]}]}`
	if string(got) != want {
		t.Fatalf("timeline JSON\n got: %s\nwant: %s", got, want)
	}
}
