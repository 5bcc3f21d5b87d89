package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the outcome for one (workload, end-to-end metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// bySeed holds one metric's values on one workload, keyed by seed.
type bySeed map[int64][]float64

func (b bySeed) all() []float64 {
	var xs []float64
	for _, v := range b {
		xs = append(xs, v...)
	}
	return xs
}

// judge compares the base runs of one metric with the new ones: the new
// median may be worse than the base median by the metric's bound (a share
// of the base median, or an absolute allowance). Noise is the quartile
// distance of the per-seed differences when the two sets share seeds —
// seed-to-seed variation of the inputs then cancels, and a model metric
// that repeats exactly has none — and of the base values otherwise; for a
// relative bound the differences are taken relative to each seed's base
// value. When the noise is wider than the bound the pair cannot be decided
// either way.
func judge(def metricDef, base, next bySeed) (baseMed, nextMed, noise float64, v verdict) {
	var b, n, diffs []float64
	for seed, bv := range base {
		if nv, ok := next[seed]; ok {
			b = append(b, median(bv))
			n = append(n, median(nv))
			d := median(nv) - median(bv)
			if def.Abs == 0 && median(bv) != 0 {
				d /= math.Abs(median(bv))
			}
			diffs = append(diffs, d)
		}
	}
	paired := len(diffs) > 0
	if !paired { // no shared seed: compare the sets as they are
		b, n = base.all(), next.all()
		diffs = b
	}
	baseMed, nextMed = median(b), median(n)
	if q1, q3, ok := quartiles(diffs); ok {
		noise = q3 - q1
		if paired && def.Abs == 0 {
			noise *= math.Abs(baseMed)
		}
	}
	allowed := def.Abs
	if allowed == 0 {
		allowed = def.Bound * math.Abs(baseMed)
	}
	worse := nextMed - baseMed
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case noise > allowed:
		v = verdictUnresolved
	case worse > allowed:
		v = verdictWorse
	default:
		v = verdictOK
	}
	return
}

// group collects each (workload, metric) pair's values, by seed.
func group(recs []record) map[string]map[string]bySeed {
	g := map[string]map[string]bySeed{}
	for i := range recs {
		if recs[i].Quick {
			continue // -quick measures nothing
		}
		m := g[recs[i].Workload]
		if m == nil {
			m = map[string]bySeed{}
			g[recs[i].Workload] = m
		}
		for name, v := range recs[i].Metrics {
			if m[name] == nil {
				m[name] = bySeed{}
			}
			seed := recs[i].Stamp.Seed
			m[name][seed] = append(m[name][seed], v.Value)
		}
	}
	return g
}

// digestsMoved counts simulator legs whose result digest differs between
// two runs of the same workload and seed.
func digestsMoved(base, next []record) (same, moved int) {
	type key struct {
		workload string
		seed     int64
		leg      string
	}
	seen := map[key]string{}
	for i := range base {
		for leg, d := range base[i].Digests {
			seen[key{base[i].Workload, base[i].Stamp.Seed, leg}] = d
		}
	}
	counted := map[key]bool{}
	for i := range next {
		for leg, d := range next[i].Digests {
			k := key{next[i].Workload, next[i].Stamp.Seed, leg}
			if was, ok := seen[k]; ok && !counted[k] {
				counted[k] = true
				if was == d {
					same++
				} else {
					moved++
				}
			}
		}
	}
	return
}

// runCompare prints one row per (workload, end-to-end metric) pair and
// exits non-zero when any pair is worse or unresolved.
func runCompare(w io.Writer, basePath, nextPath string) int {
	base, err := readRecords(basePath)
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s: no records", basePath)
	}
	var next []record
	if err == nil {
		next, err = readRecords(nextPath)
	}
	if err == nil && len(next) == 0 {
		err = fmt.Errorf("%s: no records", nextPath)
	}
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	gb, gn := group(base), group(next)
	fmt.Fprintf(w, "base %s: rev %s, %s, nproc %d, %d records\n", basePath, base[0].Stamp.GitRev, base[0].Stamp.GoVersion, base[0].Stamp.NProc, len(base))
	fmt.Fprintf(w, "new  %s: rev %s, %s, nproc %d, %d records\n\n", nextPath, next[0].Stamp.GitRev, next[0].Stamp.GoVersion, next[0].Stamp.NProc, len(next))
	fmt.Fprintf(w, "%-12s %-22s %-6s %14s %14s %20s %10s %10s  %s\n",
		"workload", "metric", "better", "base median", "new median", "new/base (base)", "bound", "noise IQR", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, def := range metricsOf(endToEnd, workloadE2E) {
			b, n := gb[wl.Name][def.Name], gn[wl.Name][def.Name]
			if !def.on(wl.Name) || len(b) == 0 || len(n) == 0 {
				continue
			}
			bm, nm, noise, v := judge(def, b, n)
			bound := fmt.Sprintf("%.1f%%", def.Bound*100)
			if def.Abs != 0 {
				bound = fmt.Sprintf("%g abs", def.Abs)
			}
			ratioCol := "-"
			if bm != 0 {
				ratioCol = fmt.Sprintf("%.4f (%.6g)", nm/bm, bm)
			}
			if v != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-22s %-6s %14.6g %14.6g %20s %10s %10.3g  %s\n",
				wl.Name, def.Name, def.Better, bm, nm, ratioCol, bound, noise, v)
		}
	}
	same, moved := digestsMoved(base, next)
	fmt.Fprintf(w, "\nresult digests over shared (workload, seed, leg): %d equal, %d moved\n", same, moved)
	fmt.Fprintf(w, "%d pair(s) worse or unresolved\n", bad)
	if bad > 0 {
		return 1
	}
	return 0
}
