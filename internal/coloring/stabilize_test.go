package coloring

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fdlsp/internal/graph"
)

// referenceStabilize is the pre-extraction soak implementation: identical
// rule, but the usable fraction re-audited from scratch every round with
// UsableFraction. Stabilize must match it exactly — same rounds, same
// minUsable bits, same final schedule — which is the equivalence assertion
// for the incremental usable-count tracker.
func referenceStabilize(g *graph.Graph, as Assignment, dirty map[graph.Arc]bool) (rounds int, minUsable float64, err error) {
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
			if arcDirty(g, as, a) {
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
		if u := UsableFraction(g, as); u < minUsable {
			minUsable = u
		}
		rounds++
		actors := make([]graph.Arc, 0, len(work))
		for _, a := range work {
			if actsThisRound(g, a, dirty) {
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
// clashing partners, via the incremental audit).
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
	for _, v := range AuditArcs(g, as, touched) {
		dirty[v.A] = true
		dirty[v.B] = true
	}
	return dirty
}

func cloneDirty(d map[graph.Arc]bool) map[graph.Arc]bool {
	c := make(map[graph.Arc]bool, len(d))
	for k, v := range d {
		c[k] = v
	}
	return c
}

// TestStabilizeMatchesFullAuditReference pins the incremental usable-count
// tracker to the full per-round audit: across random graphs and
// perturbations both implementations must agree on rounds, the exact
// minUsable float, and the repaired schedule.
func TestStabilizeMatchesFullAuditReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(24)
		m := n + rng.Intn(2*n)
		g := graph.ConnectedGNM(n, m, rng)
		as := Greedy(g, nil)
		dirty := perturb(g, as, rng)

		asRef := as.Clone()
		rounds, minU, err := Stabilize(g, as, cloneDirty(dirty))
		roundsRef, minURef, errRef := referenceStabilize(g, asRef, cloneDirty(dirty))
		if (err == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, err, errRef)
		}
		if rounds != roundsRef {
			t.Fatalf("trial %d: rounds %d, reference %d", trial, rounds, roundsRef)
		}
		if minU != minURef {
			t.Fatalf("trial %d: minUsable %v, reference %v", trial, minU, minURef)
		}
		if !reflect.DeepEqual(as, asRef) {
			t.Fatalf("trial %d: repaired schedules diverge", trial)
		}
		if viols := Verify(g, as); len(viols) != 0 {
			t.Fatalf("trial %d: %d residual violations after repair", trial, len(viols))
		}
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
	as := Greedy(g, nil)
	// A complete greedy schedule has no unusable arcs, so the empty seed is
	// the exact sparse state to start from.
	ut := newUsableTracker(g, as, nil)
	arcs := g.ArcsView()
	var same, toNone, intoClash, outOfClash int
	for step := 0; step < 400; step++ {
		a := arcs[rng.Intn(len(arcs))]
		old := as[a]
		wasUsable := arcUsable(g, as, a)
		switch rng.Intn(4) {
		case 0:
			delete(as, a)
		case 1:
			as[a] = 1 + rng.Intn(4)
		case 2:
			delete(as, a)
			AssignGreedyLocal(g, as, []graph.Arc{a})
		default:
			// Same slot: the move is a no-op for every arc.
		}
		switch cur := as[a]; {
		case cur == old:
			same++
		case cur == None:
			toNone++
		case !arcUsable(g, as, a):
			intoClash++
		case old != None && !wasUsable:
			outOfClash++
		}
		ut.moved(a, old)
		wantUsable, wantTotal := UsableArcs(g, as)
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
	as := Greedy(g, nil)
	rounds, minU, err := Stabilize(g, as, map[graph.Arc]bool{})
	if err != nil || rounds != 0 || minU != 1 {
		t.Fatalf("got rounds=%d minUsable=%v err=%v, want 0, 1, nil", rounds, minU, err)
	}
}
