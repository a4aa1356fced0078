package coloring

import "fdlsp/internal/graph"

// AuditArcs checks just the given arcs against the schedule: each is
// reported uncolored (a Violation with B == A and Color None) or checked for
// a color clash against its distance-2 conflict set from the warm per-graph
// cache. Each violated pair is reported once, ordered (smaller arc first),
// in a deterministic order. This is the incremental counterpart of Verify:
// auditing the dirty arcs after a perturbation costs O(|dirty|·Δ²) on the
// cached conflict sets instead of re-verifying the whole schedule, which is
// what lets a churn soak probe residual conflicts every repair round.
//
// Soundness of dirty-set auditing: a topology change can only create a new
// violated pair if at least one member's conflict set changed, and a
// recoloring only if a member was recolored — so auditing the changed and
// recolored arcs (and trusting the prior schedule for the rest) sees every
// violation introduced since the schedule was last clean.
func AuditArcs(g *graph.Graph, as Assignment, arcs []graph.Arc) []Violation {
	var viols []Violation
	seen := make(map[Violation]bool)
	for _, a := range arcs {
		c := as[a]
		if c == None {
			v := Violation{A: a, B: a, Color: None}
			if !seen[v] {
				seen[v] = true
				viols = append(viols, v)
			}
			continue
		}
		for _, b := range ConflictingArcs(g, a) {
			if as[b] != c {
				continue
			}
			v := Violation{A: a, B: b, Color: c}
			if graph.CompareArcs(b, a) < 0 {
				v.A, v.B = b, a
			}
			if !seen[v] {
				seen[v] = true
				viols = append(viols, v)
			}
		}
	}
	return viols
}

// UsableArcs counts the arcs of g whose slot can actually fire under as: the
// arc is colored and no conflicting arc shares its color. During repair this
// is the live capacity of the TDMA frame — a conflicting pair jams both
// transmissions, an uncolored arc has no slot at all — and usable/total is
// the fraction-of-frame-usable metric the soak driver tracks while the
// schedule heals. Runs on the warm conflict cache: O(m·Δ²), no allocation
// beyond the cache itself.
func UsableArcs(g *graph.Graph, as Assignment) (usable, total int) {
	arcs := g.ArcsView()
	total = len(arcs)
	for _, a := range arcs {
		c := as[a]
		if c == None {
			continue
		}
		ok := true
		for _, b := range ConflictingArcs(g, a) {
			if as[b] == c {
				ok = false
				break
			}
		}
		if ok {
			usable++
		}
	}
	return usable, total
}

// UsableFraction returns UsableArcs as a ratio in [0,1]; an empty graph
// counts as fully usable (there is nothing to schedule).
func UsableFraction(g *graph.Graph, as Assignment) float64 {
	usable, total := UsableArcs(g, as)
	if total == 0 {
		return 1
	}
	return float64(usable) / float64(total)
}
