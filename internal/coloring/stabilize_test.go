package coloring

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fdlsp/internal/graph"
)

// The map model below is the maintenance path as it was written before the
// dense slot store: an Assignment map, a map dirty set, conflict rows as
// arcs, and the usable fraction re-audited from scratch every round. It
// lives only here, as the reference the dense AuditArcs and Stabilize must
// match exactly — same violations, same rounds, same minUsable bits, same
// final slots.

// mapDirty reports whether a needs repair under as.
func mapDirty(g *graph.Graph, as Assignment, a graph.Arc) bool {
	c := as[a]
	if c == None {
		return true
	}
	for _, b := range ConflictingArcs(g, a) {
		if as[b] == c {
			return true
		}
	}
	return false
}

// mapUsableFraction is UsableFraction over the map.
func mapUsableFraction(g *graph.Graph, as Assignment) float64 {
	arcs := g.ArcsView()
	if len(arcs) == 0 {
		return 1
	}
	usable := 0
	for _, a := range arcs {
		if !mapDirty(g, as, a) {
			usable++
		}
	}
	return float64(usable) / float64(len(arcs))
}

// mapAudit is AuditArcs over the map, deduplicating with a map.
func mapAudit(g *graph.Graph, as Assignment, arcs []graph.Arc) []Violation {
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

// mapStabilize is Stabilize over the map.
func mapStabilize(g *graph.Graph, as Assignment, dirty map[graph.Arc]bool) (rounds int, minUsable float64, err error) {
	minUsable = 1
	if len(dirty) == 0 {
		return 0, minUsable, nil
	}
	work := make([]graph.Arc, 0, len(dirty))
	for a := range dirty {
		work = append(work, a)
	}
	sort.Slice(work, func(i, j int) bool { return graph.CompareArcs(work[i], work[j]) < 0 })

	budget := 2*len(work) + 8
	for {
		live := work[:0]
		for _, a := range work {
			if !dirty[a] {
				continue
			}
			if mapDirty(g, as, a) {
				live = append(live, a)
			} else {
				dirty[a] = false
			}
		}
		work = live
		if len(work) == 0 {
			return rounds, minUsable, nil
		}
		if rounds >= budget {
			return rounds, minUsable, fmt.Errorf("reference: exceeded %d rounds", budget)
		}
		if u := mapUsableFraction(g, as); u < minUsable {
			minUsable = u
		}
		rounds++
		var actors []graph.Arc
		for _, a := range work {
			acts := true
			for _, b := range ConflictingArcs(g, a) {
				if dirty[b] && graph.CompareArcs(b, a) < 0 {
					acts = false
					break
				}
			}
			if acts {
				actors = append(actors, a)
			}
		}
		for _, a := range actors {
			delete(as, a)
			AssignGreedyLocal(g, as, []graph.Arc{a})
			dirty[a] = false
		}
	}
}

// perturb jams or clears a random subset of arcs and returns the dirty set
// covering every violation it introduced (the perturbed arcs plus their
// clashing partners, via the map audit).
func perturb(g *graph.Graph, as Assignment, rng *rand.Rand) map[graph.Arc]bool {
	arcs := g.ArcsView()
	dirty := make(map[graph.Arc]bool)
	var touched []graph.Arc
	for i := 0; i < len(arcs)/3+1; i++ {
		a := arcs[rng.Intn(len(arcs))]
		if rng.Intn(2) == 0 {
			delete(as, a)
		} else {
			as[a] = 1 + rng.Intn(3)
		}
		touched = append(touched, a)
		dirty[a] = true
	}
	for _, v := range mapAudit(g, as, touched) {
		dirty[v.A] = true
		dirty[v.B] = true
	}
	return dirty
}

// dirtyIDs returns the ids of the true entries of dirty, in random order
// with a duplicate, which Stabilize must not care about.
func dirtyIDs(g *graph.Graph, dirty map[graph.Arc]bool, rng *rand.Rand) []int32 {
	var arcs []graph.Arc
	for a, d := range dirty {
		if d {
			arcs = append(arcs, a)
		}
	}
	slices.SortFunc(arcs, graph.CompareArcs)
	ids := idsOf(g, arcs)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > 0 {
		ids = append(ids, ids[0])
	}
	return ids
}

// TestStabilizeMatchesFullAuditReference pins Stabilize, with its
// incremental usable-count tracker, to the map model's full per-round
// audit: across random graphs and perturbations both must agree on rounds,
// the exact minUsable float, and the repaired schedule.
func TestStabilizeMatchesFullAuditReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(24)
		m := n + rng.Intn(2*n)
		g := graph.ConnectedGNM(n, m, rng)
		as := Greedy(g, nil)
		dirty := perturb(g, as, rng)

		slots := SlotsOf(g, as)
		rounds, minU, err := Stabilize(g, slots, dirtyIDs(g, dirty, rng))
		roundsRef, minURef, errRef := mapStabilize(g, as, dirty)
		if (err == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, err, errRef)
		}
		if rounds != roundsRef {
			t.Fatalf("trial %d: rounds %d, reference %d", trial, rounds, roundsRef)
		}
		if minU != minURef {
			t.Fatalf("trial %d: minUsable %v, reference %v", trial, minU, minURef)
		}
		if got := AssignmentOf(g, slots); !reflect.DeepEqual(got, as) {
			t.Fatalf("trial %d: repaired schedules diverge", trial)
		}
		if viols := Verify(g, as); len(viols) != 0 {
			t.Fatalf("trial %d: %d residual violations after repair", trial, len(viols))
		}
	}
}

// TestDenseRepairMatchesMapReference runs AuditArcs and Stabilize on the
// dense slot store and on the map model over seeded graphs whose topology
// was patched first — so stable ids are recycled and no longer match
// sorted positions — and requires the same violations, rounds, minUsable
// and final slots.
func TestDenseRepairMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	recycled := 0
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(20)
		g := graph.ConnectedGNM(n, n+rng.Intn(2*n), rng)
		_ = CacheStats(g) // warm, so the flips below patch
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			switch {
			case u == v:
			case g.HasEdge(u, v):
				g.RemoveEdge(u, v)
			default:
				g.AddEdge(u, v)
			}
		}
		for i, a := range g.ArcsView() {
			if id, _ := g.ArcIndex(a); id != i {
				recycled++
				break
			}
		}
		as := Greedy(g, nil)
		if len(g.ArcsView()) == 0 {
			continue
		}
		dirty := perturb(g, as, rng)

		// Audit every arc, in a shuffled order with repeats.
		arcs := append([]graph.Arc(nil), g.ArcsView()...)
		rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
		arcs = append(arcs, arcs[:len(arcs)/4]...)
		slots := SlotsOf(g, as)
		if got, want := AuditArcs(g, slots, idsOf(g, arcs)), mapAudit(g, as, arcs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: audit diverges\n dense: %v\n   map: %v", trial, got, want)
		}

		rounds, minU, err := Stabilize(g, slots, dirtyIDs(g, dirty, rng))
		roundsRef, minURef, errRef := mapStabilize(g, as, dirty)
		if err != nil || errRef != nil {
			t.Fatalf("trial %d: repair failed: %v / %v", trial, err, errRef)
		}
		if rounds != roundsRef || minU != minURef {
			t.Fatalf("trial %d: rounds %d minUsable %v, reference %d %v", trial, rounds, minU, roundsRef, minURef)
		}
		if got := AssignmentOf(g, slots); !reflect.DeepEqual(got, as) {
			t.Fatalf("trial %d: repaired slots diverge\n dense: %v\n   map: %v", trial, got, as)
		}
		if got, want := UsableFraction(g, slots), mapUsableFraction(g, as); got != want {
			t.Fatalf("trial %d: usable fraction %v, reference %v", trial, got, want)
		}
	}
	if recycled == 0 {
		t.Fatal("no trial scrambled the arc ids; the stream does not exercise recycling")
	}
}

// TestUsableTrackerMatchesUsableArcs drives the tracker through random
// recolorings, each reported with moved — the filtered re-check Stabilize
// uses — and asserts its running count equals a fresh UsableArcs audit after
// every step. The stream must cover a recolor to the same slot, to None,
// into a clash and out of a clash.
func TestUsableTrackerMatchesUsableArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.ConnectedGNM(20, 45, rng)
	slots := SlotsOf(g, Greedy(g, nil))
	cc := cacheOf(g)
	// A complete greedy schedule has no unusable arcs, so the empty seed is
	// the exact sparse state to start from.
	var unusable IDSet
	unusable.Reset(g.ArcIDBound())
	ut := newUsableTracker(cc, slots, &unusable, 2*g.M(), nil)
	ids := idsOf(g, g.ArcsView())
	var same, toNone, intoClash, outOfClash int
	for step := 0; step < 400; step++ {
		a := ids[rng.Intn(len(ids))]
		old := slots[a]
		wasUsable := !cc.arcDirty(slots, a)
		switch rng.Intn(4) {
		case 0:
			slots[a] = None
		case 1:
			slots[a] = int32(1 + rng.Intn(4))
		case 2:
			slots[a] = None
			slots[a] = cc.smallestFree(slots, a)
		default:
			// Same slot: the move is a no-op for every arc.
		}
		switch cur := slots[a]; {
		case cur == old:
			same++
		case cur == None:
			toNone++
		case cc.arcDirty(slots, a):
			intoClash++
		case old != None && !wasUsable:
			outOfClash++
		}
		ut.moved(a, old)
		wantUsable, wantTotal := UsableArcs(g, slots)
		if ut.usableCount() != wantUsable || ut.total != wantTotal {
			t.Fatalf("step %d: tracker %d/%d, full audit %d/%d",
				step, ut.usableCount(), ut.total, wantUsable, wantTotal)
		}
	}
	if same == 0 || toNone == 0 || intoClash == 0 || outOfClash == 0 {
		t.Fatalf("stream missed a case: same=%d none=%d into=%d out=%d",
			same, toNone, intoClash, outOfClash)
	}
}

// TestStabilizeEmptyDirty pins the trivial path: nothing dirty, no rounds,
// fully usable.
func TestStabilizeEmptyDirty(t *testing.T) {
	g := graph.Path(4)
	slots := SlotsOf(g, Greedy(g, nil))
	rounds, minU, err := Stabilize(g, slots, nil)
	if err != nil || rounds != 0 || minU != 1 {
		t.Fatalf("got rounds=%d minUsable=%v err=%v, want 0, 1, nil", rounds, minU, err)
	}
}
