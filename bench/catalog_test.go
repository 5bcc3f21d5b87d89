package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range catalog {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not valid", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		for _, w := range m.On {
			if _, ok := lookupWorkload(w); !ok {
				t.Errorf("%s: measured on unknown workload %q", m.Name, w)
			}
		}
		switch m.Class {
		case endToEnd:
			if m.Bound <= 0 || m.Bound > 0.25 || m.On != nil {
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25] and every workload", m.Name)
			}
			if m.Bound > catalogBound("setup_s") {
				t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
			}
		case workloadE2E:
			if (m.Bound > 0) == (m.Abs > 0) {
				t.Errorf("%s: needs exactly one of a relative and an absolute bound", m.Name)
			}
		case layer:
			if m.Bound != 0 || m.Abs != 0 {
				t.Errorf("%s: per-layer metrics have no bound", m.Name)
			}
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || w.SetupReps < 1 {
			t.Errorf("workload %q is malformed", w.Name)
		}
	}
}

func catalogBound(name string) float64 {
	m, _ := lookupMetric(name)
	return m.Bound
}

// BENCHMARK.json is what the acceptance driver reads; the catalog is what
// the harness reports. They must say the same thing.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, the catalog has %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %s %s %s", kind, i, g, def.Name, def.Unit, def.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.Bound) {
				t.Errorf("%s[%d] %s: bound mismatch", kind, i, def.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, metricsOf(endToEnd), true)
	check("per_layer", doc.PerLayer, metricsOf(workloadE2E, layer), false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(doc.EndToEnd), len(doc.PerLayer))
	}
}
