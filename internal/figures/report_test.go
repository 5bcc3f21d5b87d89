package figures

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestAppendPoints pins the one bench-log writer over every point type
// that feeds it: appending twice grows the log, every line is one JSON
// object carrying the figure id and a run stamp outside the point
// payload, and each payload decodes back into the point that was written.
func TestAppendPoints(t *testing.T) {
	tests := []struct {
		fig    string
		points []any
	}{
		{"scale", []any{
			ScalePoint{Users: 100, Protocol: "SocialTube", Seed: 1, Requests: 300},
			ScalePoint{Users: 100, Protocol: "NetTube", Seed: 1, Requests: 300, MeanLinks: 4.5, Env: ScaleEnv{WallMs: 2.5}},
		}},
		{"load", []any{
			LoadPoint{Protocol: "SocialTube", Seed: 1, Mode: "steady", RPS: 3, Offered: 133, Requests: 133},
			LoadPoint{Protocol: "PA-VoD", Seed: 1, Mode: "steady", RPS: 18, ServerShed: 54, ShedRate: 0.124},
		}},
		{"timeline", []any{
			TimelinePoint{Protocol: "SocialTube", Seed: 1, WindowMs: 1000, Requests: 40, HitRate: 0.5},
			TimelinePoint{Protocol: "SocialTube", Seed: 1, WindowMs: 1000, StartMs: 1000, Requests: 60},
		}},
		{"failover", []any{
			FailoverPoint{Protocol: "SocialTube", Seed: 1, Requests: 16, NoRestartFrac: 1},
			FailoverPoint{Protocol: "NetTube", Seed: 1, Requests: 16, NoRestartFrac: 0.75},
		}},
		{"takeover", []any{
			ControlPlanePoint{Variant: "baseline", Protocol: "SocialTube", Seed: 1, Shards: 2, Replicas: 2, Requests: 16, HitRate: 1},
			ControlPlanePoint{Variant: "shard1-dead", Protocol: "SocialTube", Seed: 1, Shards: 2, Replicas: 2, DeadShard: 1,
				Requests: 16, HitRate: 1, Env: ControlPlaneEnv{TakeoverMs: 12.5, Reroutes: 3}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.fig, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			if err := AppendPoints(path, tt.fig, tt.points); err != nil {
				t.Fatal(err)
			}
			if err := AppendPoints(path, tt.fig, tt.points[:1]); err != nil {
				t.Fatal(err)
			}
			want := append(append([]any{}, tt.points...), tt.points[0])
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			n := 0
			for ; sc.Scan(); n++ {
				var line struct {
					Fig   string          `json:"fig"`
					Run   *runStamp       `json:"run"`
					Point json.RawMessage `json:"point"`
				}
				dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("line %d: %v", n, err)
				}
				if line.Fig != tt.fig {
					t.Errorf("line %d: fig %q, want %q", n, line.Fig, tt.fig)
				}
				if line.Run == nil || line.Run.GoVersion == "" || line.Run.NProc < 1 ||
					line.Run.GOMAXPROCS < 1 || line.Run.Date == "" || line.Run.Rev == "" {
					t.Errorf("line %d: incomplete run stamp %+v", n, line.Run)
				}
				if n >= len(want) {
					continue
				}
				got := reflect.New(reflect.TypeOf(want[n]))
				if err := json.Unmarshal(line.Point, got.Interface()); err != nil {
					t.Fatalf("line %d: point: %v", n, err)
				}
				if !reflect.DeepEqual(got.Elem().Interface(), want[n]) {
					t.Errorf("line %d did not round-trip:\n%+v\nvs\n%+v", n, got.Elem().Interface(), want[n])
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("%d lines after two appends, want %d", n, len(want))
			}
		})
	}
}
