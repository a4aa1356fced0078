package coloring

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fdlsp/internal/graph"
)

// verifyAllPairs is the all-pairs reference Verify replaced: the uncolored
// arcs in (From, To) order, then per color ascending every pair i < j of the
// color class (in arc order) that Conflict reports.
func verifyAllPairs(g *graph.Graph, as Assignment) []Violation {
	var viols []Violation
	byColor := make(map[int][]graph.Arc)
	for _, a := range g.ArcsView() {
		c := as[a]
		if c == None {
			viols = append(viols, Violation{A: a, B: a, Color: None})
			continue
		}
		byColor[c] = append(byColor[c], a)
	}
	colors := make([]int, 0, len(byColor))
	for c := range byColor {
		colors = append(colors, c)
	}
	sort.Ints(colors)
	for _, c := range colors {
		class := byColor[c]
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				if Conflict(g, class[i], class[j]) {
					viols = append(viols, Violation{A: class[i], B: class[j], Color: c})
				}
			}
		}
	}
	return viols
}

// TestVerifyMatchesAllPairsReference holds Verify to the all-pairs reference
// on valid greedy schedules, on corrupted ones (random arcs recolored into a
// small palette, so classes hold many conflicting pairs), on partial ones
// (arcs uncolored, entries for non-arcs present) and on a patched graph
// whose arc ids no longer follow the sorted order: same violations, same
// order.
func TestVerifyMatchesAllPairsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(g *graph.Graph, as Assignment, label string) int {
		t.Helper()
		got, want := Verify(g, as), verifyAllPairs(g, as)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Verify diverges from the all-pairs reference\n got: %v\nwant: %v", label, got, want)
		}
		return len(want)
	}
	found := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		g := graph.GNM(n, rng.Intn(min(n*(n-1)/2, 4*n)+1), rng)
		as := Greedy(g, nil)
		if check(g, as, "valid") != 0 {
			t.Fatalf("trial %d: greedy schedule reported invalid", trial)
		}
		arcs := g.ArcsView()
		if len(arcs) == 0 {
			continue
		}
		corrupt := as.Clone()
		for k := 0; k < 1+len(arcs)/3; k++ {
			corrupt[arcs[rng.Intn(len(arcs))]] = 1 + rng.Intn(3)
		}
		found += check(g, corrupt, "corrupted")

		partial := corrupt.Clone()
		for k := 0; k < 1+len(arcs)/4; k++ {
			delete(partial, arcs[rng.Intn(len(arcs))])
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			partial[graph.Arc{From: u, To: v}] = 1
		}
		found += check(g, partial, "partial")

		one := make(Assignment, len(arcs))
		for _, a := range arcs {
			one[a] = 7
		}
		found += check(g, one, "one slot")
	}

	g := graph.GNM(24, 60, rng)
	as := Greedy(g, nil)
	for step := 0; step < 80; step++ {
		u, v := rng.Intn(24), rng.Intn(24)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
			delete(as, graph.Arc{From: u, To: v})
			delete(as, graph.Arc{From: v, To: u})
		} else {
			g.AddEdge(u, v)
			as[graph.Arc{From: u, To: v}] = 1 + rng.Intn(4)
			as[graph.Arc{From: v, To: u}] = 1 + rng.Intn(4)
		}
		found += check(g, as, "patched")
	}
	if found == 0 {
		t.Fatal("no schedule had a violation: the comparison never exercised the conflict search")
	}
}
