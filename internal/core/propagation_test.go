package core

import (
	"math/rand"
	"testing"

	"fdlsp/internal/coloring"
	"fdlsp/internal/graph"
)

// TestColorPhaseKnowledgeRadius pins the safety lemma the coloring steps
// rely on: after a coloring wave, the color of every newly colored arc
// (x,y) is known to every node within two hops of x OR of y (the colorer's
// own TTL-2 flood plus the endpoint rule's re-flood from the other side).
// That radius is exactly what makes a later greedy choice at any such node
// conflict-free.
func TestColorPhaseKnowledgeRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(25)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := rng.Intn(2 * n)
		if extra > maxExtra {
			extra = maxExtra
		}
		g := graph.ConnectedGNM(n, n-1+extra, rng)
		states := make([]*nodeState, n)
		for v := 0; v < n; v++ {
			states[v] = &nodeState{id: v, know: newKnowledge(v, g, 2)}
		}
		// One colorer, arbitrary node.
		colorer := rng.Intn(n)
		selected := make([]bool, n)
		selected[colorer] = true
		pr := newPhaseRunner(g, states, nil, nil, nil)
		if _, _, _, _, err := pr.color(int64(trial), selected, GBG, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		colored := states[colorer].ownColored
		if g.Degree(colorer) > 0 && len(colored) == 0 {
			t.Fatalf("trial %d: colorer %d colored nothing", trial, colorer)
		}
		for _, a := range colored {
			c := states[colorer].know.Color(a)
			if c == coloring.None {
				t.Fatalf("trial %d: arc %v uncolored at colorer", trial, a)
			}
			for u := 0; u < n; u++ {
				dx := g.Dist(u, a.From)
				dy := g.Dist(u, a.To)
				within := (dx >= 0 && dx <= 2) || (dy >= 0 && dy <= 2)
				if !within {
					continue
				}
				if got := states[u].know.Color(a); got != c {
					t.Fatalf("trial %d: node %d (dist %d/%d from %v) knows color %d, want %d",
						trial, u, dx, dy, a, got, c)
				}
			}
		}
	}
}

// TestColorPhaseSimultaneousColorersStayConsistent runs a coloring wave
// with several far-apart colorers and checks the combined knowledge stays
// single-valued (no node ever sees two colors for one arc — the knowledge
// store panics on contradiction, so completing the phase is the assertion)
// and every colorer's arcs obey the verifier.
func TestColorPhaseSimultaneousColorersStayConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(30)
		g := graph.ConnectedGNM(n, n-1+rng.Intn(n), rng) // n ≥ 20: always within the edge budget
		states := make([]*nodeState, n)
		for v := 0; v < n; v++ {
			states[v] = &nodeState{id: v, know: newKnowledge(v, g, 2)}
		}
		// Pick colorers greedily at pairwise distance >= 4 (what a
		// secondary MIS guarantees in the GBG variant).
		selected := make([]bool, n)
		var chosen []int
		for v := 0; v < n; v++ {
			ok := true
			for _, u := range chosen {
				if d := g.Dist(v, u); d >= 0 && d < 4 {
					ok = false
					break
				}
			}
			if ok {
				selected[v] = true
				chosen = append(chosen, v)
			}
		}
		pr := newPhaseRunner(g, states, nil, nil, nil)
		if _, _, _, _, err := pr.color(int64(trial), selected, GBG, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		partial := coloring.NewAssignment(g)
		for _, st := range states {
			for _, a := range st.ownColored {
				partial[a] = st.know.Color(a)
			}
		}
		// No conflicting same-colored pair among the colored arcs.
		arcs := make([]graph.Arc, 0, len(partial))
		for a := range partial {
			arcs = append(arcs, a)
		}
		for i := 0; i < len(arcs); i++ {
			for j := i + 1; j < len(arcs); j++ {
				if partial[arcs[i]] == partial[arcs[j]] && coloring.Conflict(g, arcs[i], arcs[j]) {
					t.Fatalf("trial %d: simultaneous colorers conflicted: %v and %v share %d",
						trial, arcs[i], arcs[j], partial[arcs[i]])
				}
			}
		}
	}
}
