package coloring

import (
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
