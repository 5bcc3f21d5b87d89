package figures

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRegistry pins what the four CLIs derive from the registry: every id
// in a group's help text resolves to exactly that figure, `all` runs the
// pinned subset in the pinned order, and an unknown id's error lists the
// group's ids.
func TestRegistry(t *testing.T) {
	tests := []struct {
		group Group
		ids   []string // registry order, which is the help text's order
		all   []string // what -fig all runs
	}{
		{GroupTrace,
			[]string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"},
			[]string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"}},
		{GroupSim,
			[]string{"table1", "15", "16a", "17a", "18a", "churn", "timeline", "scale", "load", "prefetch"},
			[]string{"table1", "15", "16a", "17a", "18a", "churn"}},
		{GroupEmu,
			[]string{"16b", "17b", "18b", "outage", "outage-shard", "takeover", "failover"},
			[]string{"16b", "17b", "18b", "outage", "outage-shard", "takeover", "failover"}},
	}
	idsOf := func(figs []Figure) []string {
		var ids []string
		for _, f := range figs {
			ids = append(ids, f.ID)
		}
		return ids
	}
	total := 0
	for _, tt := range tests {
		t.Run(string(tt.group), func(t *testing.T) {
			if got := idsOf(Figures(tt.group)); !reflect.DeepEqual(got, tt.ids) {
				t.Fatalf("registry order %v, want %v", got, tt.ids)
			}
			help := strings.TrimSuffix(strings.TrimPrefix(Help(tt.group), "figure to regenerate: "), " or all")
			if got := strings.Split(help, ", "); !reflect.DeepEqual(got, tt.ids) {
				t.Fatalf("help lists %v, want %v", got, tt.ids)
			}
			for _, id := range tt.ids {
				figs, err := Resolve(tt.group, id)
				if err != nil || len(figs) != 1 || figs[0].ID != id || figs[0].Run == nil {
					t.Errorf("Resolve(%q) = %v, %v; want that one runnable figure", id, idsOf(figs), err)
				}
			}
			all, err := Resolve(tt.group, "all")
			if err != nil || !reflect.DeepEqual(idsOf(all), tt.all) {
				t.Errorf("Resolve(all) = %v, %v; want %v", idsOf(all), err, tt.all)
			}
			_, err = Resolve(tt.group, "nope")
			if err == nil {
				t.Fatal("unknown id resolved")
			}
			for _, id := range tt.ids {
				if !strings.Contains(err.Error(), id) {
					t.Errorf("unknown-figure error %q does not list id %q", err, id)
				}
			}
		})
		total += len(tt.ids)
	}
	if total != len(registry()) {
		t.Fatalf("registry holds %d figures, the groups above cover %d", len(registry()), total)
	}
}

// TestDesignIndexMatchesRegistry checks DESIGN.md §4 (the experiment
// index) against the registry: the `socialtube-<cli> -fig <id>` commands
// the index quotes are exactly the registry's figures.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 4. ")
	end := strings.Index(doc, "\n## 5. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 section")
	}
	var indexed []string
	for _, m := range regexp.MustCompile("`socialtube-(trace|sim|emu) -fig ([a-z0-9-]+)`").FindAllStringSubmatch(doc[start:end], -1) {
		indexed = append(indexed, m[1]+" "+m[2])
	}
	var registered []string
	for _, f := range registry() {
		registered = append(registered, string(f.Group)+" "+f.ID)
	}
	sort.Strings(indexed)
	sort.Strings(registered)
	if !reflect.DeepEqual(indexed, registered) {
		t.Fatalf("DESIGN.md §4 and the figure registry disagree:\nindex:    %v\nregistry: %v", indexed, registered)
	}
}
