package coloring

import (
	"fmt"
	"math/rand"
	"testing"

	"fdlsp/internal/graph"
)

// TestConflictingArcsWarmCacheAllocFree pins the distance-2 conflict cache:
// once the per-graph cache is built, the id rows the maintenance path reads
// are answered without any allocation — each row is a separate immutable
// allocation of the cache, sliced out, not recomputed — and ConflictingArcs
// allocates only the arc slice it converts a row into. The same holds on a
// patched cache once each dropped row has been read, and so rebuilt, once.
func TestConflictingArcsWarmCacheAllocFree(t *testing.T) {
	g := graph.ConnectedGNM(48, 144, rand.New(rand.NewSource(7)))
	ConflictingArcs(g, g.ArcsView()[0]) // build the cache
	sweep := func() {
		cc := cacheOf(g)
		for _, a := range g.ArcsView() {
			id, _ := g.ArcIndex(a)
			if len(cc.row(int32(id))) == 0 {
				t.Fatal("empty conflict set on a connected graph")
			}
		}
	}
	if avg := testing.AllocsPerRun(20, sweep); avg != 0 {
		t.Errorf("warm-cache id rows allocate %.1f per sweep, want 0", avg)
	}
	arcs := g.ArcsView()
	avg := testing.AllocsPerRun(20, func() {
		for _, a := range arcs {
			if len(ConflictingArcs(g, a)) == 0 {
				t.Fatal("empty conflict set on a connected graph")
			}
		}
	})
	if want := float64(len(arcs)); avg != want {
		t.Errorf("warm-cache ConflictingArcs allocates %.1f per sweep, want %.0f (its results)", avg, want)
	}

	e := g.Edges()[0]
	g.RemoveEdge(e.U, e.V)
	g.AddEdge(e.U, e.V)
	sweep() // rebuild the dropped rows
	if !cacheOf(g).dropped.Load() || CacheStats(g).Patches != 1 {
		t.Fatal("the flip did not leave a patched cache")
	}
	if avg := testing.AllocsPerRun(20, sweep); avg != 0 {
		t.Errorf("patched-cache id rows allocate %.1f per sweep once read, want 0", avg)
	}
}

// TestGreedyAllocsBounded pins the coloring hot path end to end: greedy
// coloring over a warm cache allocates only the dense slot store, the
// assignment map it converts to and the occasional pooled occupancy
// buffer, nothing per arc per query.
func TestGreedyAllocsBounded(t *testing.T) {
	g := graph.ConnectedGNM(48, 144, rand.New(rand.NewSource(7)))
	Greedy(g, nil) // warm cache and pool
	arcs := float64(2 * g.M())
	avg := testing.AllocsPerRun(10, func() { Greedy(g, nil) })
	// The assignment map dominates; the old per-call conflict set rebuild
	// cost several allocations per arc.
	if avg > 2*arcs {
		t.Errorf("Greedy allocates %.0f for %d arcs — conflict caching regressed", avg, 2*g.M())
	}
}

// TestConflictCacheBuildAllocs pins a full build on a warm builder to one
// allocation per live arc (its row) plus the outer table: the shared tail
// list, the stamps and the bitmap are the builder's reused scratch.
func TestConflictCacheBuildAllocs(t *testing.T) {
	g := graph.ConnectedGNM(256, 768, rand.New(rand.NewSource(3)))
	c := cacheOf(g)
	// AllocsPerRun rounds down, so enough runs absorb the rare allocation
	// made outside the build while it runs (about one 5-run average in
	// twenty read one too many).
	avg := testing.AllocsPerRun(50, func() {
		c.mu.Lock()
		c.rebuild(g)
		c.mu.Unlock()
	})
	if want := float64(2*g.M() + 1); avg != want {
		t.Errorf("a full build allocates %.0f, want %.0f (one row per arc and the table)", avg, want)
	}
}

// BenchmarkConflictCacheBuild times a full conflict-cache build on G(n, 3n)
// with a warm builder: every row of the graph, built node by node.
func BenchmarkConflictCacheBuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.ConnectedGNM(n, 3*n, rand.New(rand.NewSource(int64(n))))
			c := cacheOf(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.mu.Lock()
				c.rebuild(g)
				c.mu.Unlock()
			}
		})
	}
}
