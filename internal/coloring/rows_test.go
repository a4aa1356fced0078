package coloring

import (
	"math"
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
	for _, a := range g.ArcsView() {
		checkRow(t, g, a, label)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				checkRow(t, g, graph.Arc{From: u, To: v}, label)
				checkRow(t, g, graph.Arc{From: v, To: u}, label)
			}
		}
	}
}

// checkRow compares ConflictingArcs(g, a) against bruteRow and referenceRow.
func checkRow(t *testing.T, g *graph.Graph, a graph.Arc, label string) {
	t.Helper()
	got := ConflictingArcs(g, a)
	if want := bruteRow(g, a); !slices.Equal(got, want) {
		t.Fatalf("%s: row of %v\n got: %v\nbrute: %v", label, a, got, want)
	}
	if want := referenceRow(g, a); !slices.Equal(got, want) {
		t.Fatalf("%s: row of %v\n got: %v\n  ref: %v", label, a, got, want)
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

// TestConflictRowsPastOneBitmapWord runs the row oracle on a sparse graph of
// 4160 nodes, whose tail bitmap spans 65 words and two summary words: edges
// join nodes on both sides of the word boundary 63/64 and of the summary
// boundary 4095/4096, and reach the last node 4159. Rows are checked from a
// full build, from dropped rows rebuilt after a flip, and for hypothetical
// arcs across those boundaries and from an isolated node.
func TestConflictRowsPastOneBitmapWord(t *testing.T) {
	const n = 4160
	hubs := []int{0, 1, 62, 63, 64, 65, 127, 128, 4031, 4032, 4094, 4095, 4096, 4097, 4158, 4159}
	const isolated = 2000
	g := graph.New(n)
	for _, e := range [][2]int{{63, 64}, {64, 4095}, {4095, 4096}, {4096, 4159}, {4159, 0}, {63, 4032}, {127, 128}, {128, 4097}} {
		g.AddEdge(e[0], e[1])
	}
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 16; k++ {
		u, v := hubs[rng.Intn(len(hubs))], hubs[rng.Intn(len(hubs))]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	probes := append(slices.Clone(hubs), isolated)
	check := func(label string) {
		t.Helper()
		for _, a := range g.ArcsView() {
			checkRow(t, g, a, label)
		}
		for _, u := range probes {
			for _, v := range probes {
				if u != v && !g.HasEdge(u, v) {
					checkRow(t, g, graph.Arc{From: u, To: v}, label+" hypothetical")
				}
			}
		}
	}
	check("full build")
	g.RemoveEdge(64, 4095)
	g.AddEdge(63, 4096)
	g.AddEdge(4159, 4097)
	check("dropped rows")
	if st := CacheStats(g); st.Builds != 1 || st.Patches != 1 || st.PatchedArcs == 0 {
		t.Fatalf("flips did not take the patch path: %+v", st)
	}
}

// TestConflictBuilderStampWrap pins the builder's stamp reset: with the
// cache builder's stamp counter moved just below the uint32 wrap (at every
// offset a node's stamps can straddle), a full build and, separately,
// dropped-row rebuilds still produce exactly a fresh cache's rows.
func TestConflictBuilderStampWrap(t *testing.T) {
	g := graph.ConnectedGNM(60, 240, rand.New(rand.NewSource(5)))
	c := cacheOf(g)
	span := uint32(2 + 2*g.MaxDegree())
	same := func(label string, gen uint32) {
		t.Helper()
		fresh := newConflictCache(g)
		for _, a := range g.ArcsView() {
			id, _ := g.ArcIndex(a)
			if got, want := c.row(int32(id)), fresh.conflicts[id]; !slices.Equal(got, want) {
				t.Fatalf("%s from gen %d: row of %v\n got: %v\nfresh: %v", label, gen, a, got, want)
			}
		}
	}
	for k := uint32(0); k <= span; k++ {
		gen := math.MaxUint32 - k
		c.mu.Lock()
		c.rows.gen = gen
		c.rebuild(g)
		c.mu.Unlock()
		same("full build", gen)
	}
	edges := g.Edges()
	for k := uint32(0); k <= span; k++ {
		e := edges[int(k)%len(edges)]
		g.RemoveEdge(e.U, e.V)
		g.AddEdge(e.U, e.V)
		c = cacheOf(g) // syncs the patch: the flipped rows are dropped
		gen := math.MaxUint32 - k
		c.mu.Lock()
		c.rows.gen = gen
		c.mu.Unlock()
		same("dropped rows", gen)
	}
	if st := CacheStats(g); st.Patches == 0 {
		t.Fatalf("flips did not take the patch path: %+v", st)
	}
}
