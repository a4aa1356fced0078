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
// allocates only the arc slice it converts a row into.
func TestConflictingArcsWarmCacheAllocFree(t *testing.T) {
	g := graph.ConnectedGNM(48, 144, rand.New(rand.NewSource(7)))
	arcs := g.ArcsView()
	ConflictingArcs(g, arcs[0]) // build the cache
	avg := testing.AllocsPerRun(20, func() {
		cc := cacheOf(g)
		for _, a := range arcs {
			id, _ := g.ArcIndex(a)
			if len(cc.conflicts[id]) == 0 {
				t.Fatal("empty conflict set on a connected graph")
			}
		}
	})
	if avg != 0 {
		t.Errorf("warm-cache id rows allocate %.1f per sweep, want 0", avg)
	}
	avg = testing.AllocsPerRun(20, func() {
		for _, a := range arcs {
			if len(ConflictingArcs(g, a)) == 0 {
				t.Fatal("empty conflict set on a connected graph")
			}
		}
	})
	if want := float64(len(arcs)); avg != want {
		t.Errorf("warm-cache ConflictingArcs allocates %.1f per sweep, want %.0f (its results)", avg, want)
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
