package overlay

import (
	"testing"

	"github.com/socialtube/socialtube/internal/dist"
)

// benchMesh fills m with a connected random mesh of n nodes with the given
// link bound — the shape of one channel overlay at paper scale.
func benchMesh(m *Mesh, n, maxLinks int) *Mesh {
	g := dist.NewRNG(1)
	// Ring for connectivity, then random chords up to the bound.
	for i := 0; i < n; i++ {
		m.Connect(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for attempts := 0; m.Degree(i) < maxLinks && attempts < 4*maxLinks; attempts++ {
			m.Connect(i, g.Intn(n))
		}
	}
	return m
}

// BenchmarkFlood measures one TTL-scoped flood query over a 10k-node
// channel-overlay-shaped mesh — the hot path behind every figure run.
func BenchmarkFlood(b *testing.B) {
	const n = 10_000
	m := benchMesh(NewMesh(8), n, 8)
	neighbors := m.Neighbors
	match := func(v int) bool { return v == n-1 } // far away: full expansion
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Flood(i%n, 3, neighbors, match)
	}
}

// eachMeshKind runs a benchmark over both Mesh constructions for n nodes:
// NewMesh grown to the ids it links ("keyed") and NewDenseMesh.
func eachMeshKind(b *testing.B, n int, bench func(b *testing.B, newMesh func(max int) *Mesh)) {
	b.Run("keyed", func(b *testing.B) { bench(b, NewMesh) })
	b.Run("dense", func(b *testing.B) { bench(b, func(max int) *Mesh { return NewDenseMesh(max, n) }) })
}

// BenchmarkFloodScratch measures the same query through a reusable
// FloodScratch, the zero-allocation path the simulator uses.
func BenchmarkFloodScratch(b *testing.B) {
	const n = 10_000
	eachMeshKind(b, n, func(b *testing.B, newMesh func(max int) *Mesh) {
		m := benchMesh(newMesh(8), n, 8)
		neighbors := m.NeighborsView
		match := func(v int) bool { return v == n-1 }
		scratch := NewFloodScratch(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch.Flood(i%n, 3, neighbors, match)
		}
	})
}

// BenchmarkMeshConnect measures building a bounded mesh edge by edge —
// the join/replenish path.
func BenchmarkMeshConnect(b *testing.B) {
	const n = 1024
	eachMeshKind(b, n, func(b *testing.B, newMesh func(max int) *Mesh) {
		g := dist.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := newMesh(8)
			for e := 0; e < 4*n; e++ {
				m.Connect(g.Intn(n), g.Intn(n))
			}
		}
	})
}

// BenchmarkNeighbors measures adjacency listing during query forwarding.
func BenchmarkNeighbors(b *testing.B) {
	m := benchMesh(NewMesh(8), 1024, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Neighbors(i % 1024)
	}
}
