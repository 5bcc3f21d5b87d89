package figures

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRegistry pins what the CLI derives from the registry: every id in
// the help text resolves to exactly that figure, a group's name runs the
// group's pinned subset in the pinned order, `all` runs those subsets one
// after the other, and an unknown id's error lists every id.
func TestRegistry(t *testing.T) {
	tests := []struct {
		group Group
		ids   []string // registry order, which is the help text's order
		all   []string // what -fig <group> runs
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
	var ids, all []string
	for _, tt := range tests {
		t.Run(string(tt.group), func(t *testing.T) {
			var inGroup []Figure
			for _, f := range registry() {
				if f.Group == tt.group {
					inGroup = append(inGroup, f)
				}
			}
			if got := idsOf(inGroup); !reflect.DeepEqual(got, tt.ids) {
				t.Fatalf("registry order %v, want %v", got, tt.ids)
			}
			for _, id := range tt.ids {
				figs, err := Resolve(id)
				if err != nil || len(figs) != 1 || figs[0].ID != id || figs[0].Run == nil {
					t.Errorf("Resolve(%q) = %v, %v; want that one runnable figure", id, idsOf(figs), err)
				}
			}
			if got, err := Resolve(string(tt.group)); err != nil || !reflect.DeepEqual(idsOf(got), tt.all) {
				t.Errorf("Resolve(%s) = %v, %v; want %v", tt.group, idsOf(got), err, tt.all)
			}
		})
		ids, all = append(ids, tt.ids...), append(all, tt.all...)
	}
	if got, err := Resolve("all"); err != nil || !reflect.DeepEqual(idsOf(got), all) {
		t.Errorf("Resolve(all) = %v, %v; want %v", idsOf(got), err, all)
	}
	if got := idsOf(registry()); !reflect.DeepEqual(got, ids) {
		t.Fatalf("registry holds %v, the groups above cover %v", got, ids)
	}
	help := strings.TrimSuffix(strings.TrimPrefix(Help(), "figure to regenerate: "), "; a group: trace, sim or emu; or all")
	if got := strings.Split(help, ", "); !reflect.DeepEqual(got, ids) {
		t.Fatalf("help lists %v, want %v", got, ids)
	}
	_, err := Resolve("nope")
	if err == nil {
		t.Fatal("unknown id resolved")
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-figure error %q does not list id %q", err, id)
		}
	}
}

// TestDesignIndexMatchesRegistry checks DESIGN.md §4 (the experiment
// index) against the registry: the `socialtube -fig <id>` commands the
// index quotes name each registry figure exactly once, and nothing else.
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
	for _, m := range regexp.MustCompile("`socialtube -fig ([a-z0-9-]+)`").FindAllStringSubmatch(doc[start:end], -1) {
		indexed = append(indexed, m[1])
	}
	var registered []string
	for _, f := range registry() {
		registered = append(registered, f.ID)
	}
	sort.Strings(indexed)
	sort.Strings(registered)
	if !reflect.DeepEqual(indexed, registered) {
		t.Fatalf("DESIGN.md §4 and the figure registry disagree:\nindex:    %v\nregistry: %v", indexed, registered)
	}
}
