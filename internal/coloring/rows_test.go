package coloring

import (
	"math/rand"
	"slices"
	"testing"

	"fdlsp/internal/graph"
)

// referenceRow is the sort-based row builder the conflict cache used before
// rowBuilder: gather the Lemma 6 candidates (arcs touching a's endpoints,
// out-arcs of a.To's neighbors, in-arcs of a.From's neighbors), sort them
// by (From, To), and drop a itself and duplicates.
func referenceRow(g *graph.Graph, a graph.Arc) []graph.Arc {
	var cand []graph.Arc
	cand = append(cand, g.IncidentArcsView(a.From)...)
	cand = append(cand, g.IncidentArcsView(a.To)...)
	for _, w := range g.NeighborsView(a.To) {
		cand = append(cand, g.OutArcsView(w)...)
	}
	for _, w := range g.NeighborsView(a.From) {
		cand = append(cand, g.InArcsView(w)...)
	}
	slices.SortFunc(cand, graph.CompareArcs)
	var row []graph.Arc
	for i, b := range cand {
		if b != a && (i == 0 || b != cand[i-1]) {
			row = append(row, b)
		}
	}
	return row
}

// bruteRow is the conflict row straight from the predicate: every arc b of
// g with Conflict(g, a, b), in ArcsView's sorted, duplicate-free order.
func bruteRow(g *graph.Graph, a graph.Arc) []graph.Arc {
	var row []graph.Arc
	for _, b := range g.ArcsView() {
		if Conflict(g, a, b) {
			row = append(row, b)
		}
	}
	return row
}

// checkRows compares ConflictingArcs against bruteRow and referenceRow for
// every live arc of g and for both directions of every non-adjacent node
// pair, probed as a hypothetical arc.
func checkRows(t *testing.T, g *graph.Graph, label string) {
	t.Helper()
	check := func(a graph.Arc) {
		got := ConflictingArcs(g, a)
		if want := bruteRow(g, a); !slices.Equal(got, want) {
			t.Fatalf("%s: row of %v\n got: %v\nbrute: %v", label, a, got, want)
		}
		if want := referenceRow(g, a); !slices.Equal(got, want) {
			t.Fatalf("%s: row of %v\n got: %v\n  ref: %v", label, a, got, want)
		}
	}
	for _, a := range g.ArcsView() {
		check(a)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				check(graph.Arc{From: u, To: v})
				check(graph.Arc{From: v, To: u})
			}
		}
	}
}

// TestConflictRowsMatchBruteForce is the row oracle independent of how rows
// are built: on fresh random graphs (sparse ones with isolated nodes
// included) and after every flip of a seeded mutation stream through a warm,
// patched cache that recycles arc ids, every row equals the brute-force
// predicate set and the old sort-based builder.
func TestConflictRowsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(14)
		g := graph.GNM(n, rng.Intn(n*(n-1)/2+1), rng)
		checkRows(t, g, "fresh")
	}

	const n = 14
	g := graph.GNM(n, 26, rng)
	checkRows(t, g, "warm") // builds the cache: flips below take the patch path
	recycled := 0
	for step := 0; step < 150; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
		} else {
			bound := g.ArcIDBound()
			g.AddEdge(u, v)
			if g.ArcIDBound() == bound {
				recycled++
			}
		}
		checkRows(t, g, "patched")
	}
	if st := CacheStats(g); st.Builds != 1 || st.Patches == 0 {
		t.Fatalf("mutation stream did not run on the patch path: %+v", st)
	}
	if recycled == 0 {
		t.Fatal("mutation stream never recycled an arc id")
	}
}
