package coloring

import (
	"fmt"
	"slices"

	"fdlsp/internal/graph"
)

// Stabilize repairs the dense slot store slots (see SlotsOf) from the dirty
// arcs, given by stable id, using a distributed-round local rule, and
// returns the number of rounds taken plus the worst usable-frame fraction
// observed while repair was in progress. It is the repair rule of
// internal/incr, the one maintenance path: every live schedule — fdlspd
// sessions, the churn soak, the churn experiments — is repaired by it from
// a dirty set incr derives from a topology delta, under the same
// convergence bound. dirty is read, not modified; duplicate ids count once.
//
// The rule models what each sensor could do with its distance-2 color
// knowledge: per round, every dirty arc (uncolored, or sharing its slot with
// a conflicting arc) *acts* iff it is the smallest dirty arc in its own
// conflict set; an actor drops its color and greedily re-picks the smallest
// slot feasible against every currently colored conflicting arc. Convergence
// argument: (1) actors are pairwise non-conflicting — if two dirty arcs
// conflict, only the smaller acts — so the round's simultaneous moves cannot
// clash with each other; (2) an actor's new slot is feasible against every
// colored conflicting arc and later moves stay feasible against it, so an
// arc that acted is clean for good; (3) the globally smallest dirty arc is
// always an actor, so the dirty set strictly shrinks every round and repair
// converges within |dirty| rounds. Topology is frozen during repair, which
// is what lets the round count stand in for convergence time.
//
// The usable-frame fraction is sampled at the top of every round. It is
// maintained incrementally and sparsely: the tracker audits only the dirty
// set at startup (sound because every unusable arc is dirty — see
// usableTracker), then per-round updates are confined to the actors and
// the arcs of their conflict sets that hold an actor's old or new slot —
// only an arc whose color changed, or one whose conflict set gained or
// lost its own slot, can change usable status (see usableTracker.moved).
// Repair therefore costs O(|dirty|·Δ²) to start and O(|actors|·Δ²) per
// round plus Δ² per re-checked arc, never a term proportional to the whole
// graph's arc count. Dirty and unusable membership are stamp sets over arc
// ids and every conflict-row scan reads slots[id]: no map on the path.
func Stabilize(g *graph.Graph, slots []int32, dirty []int32) (rounds int, minUsable float64, err error) {
	minUsable = 1
	if len(dirty) == 0 {
		return 0, minUsable, nil
	}
	cc := cacheOf(g)
	arcOf := g.ArcsByIDView()
	sc := getScratch(g.ArcIDBound())
	defer scratchPool.Put(sc)
	// Deterministic worklist: ids sorted by arc, membership in the stamp set.
	work := sc.work[:0]
	for _, id := range dirty {
		if sc.dirty.Add(id) {
			work = append(work, id)
		}
	}
	slices.SortFunc(work, func(x, y int32) int { return graph.CompareArcs(arcOf[x], arcOf[y]) })
	defer func() { sc.work = work[:0] }()

	ut := newUsableTracker(cc, slots, &sc.unusable, 2*g.M(), work)
	budget := 2*len(work) + 8
	actors, olds := sc.actors[:0], sc.olds[:0]
	defer func() { sc.actors, sc.olds = actors[:0], olds[:0] }()
	for {
		// Re-filter: an arc is still dirty if uncolored or clashing.
		live := work[:0]
		for _, a := range work {
			if !sc.dirty.Has(a) {
				continue
			}
			if cc.arcDirty(slots, a) {
				live = append(live, a)
			} else {
				sc.dirty.Remove(a)
			}
		}
		work = live
		if len(work) == 0 {
			return rounds, minUsable, nil
		}
		if rounds >= budget {
			return rounds, minUsable, fmt.Errorf(
				"coloring: stabilization exceeded %d rounds with %d dirty arcs", budget, len(work))
		}
		if u := ut.fraction(); u < minUsable {
			minUsable = u
		}
		rounds++
		// Select the round's actors against the frozen dirty set first, then
		// apply: selection must not observe earlier actors of the same round
		// (all sensors decide simultaneously on the previous round's state).
		actors, olds = actors[:0], olds[:0]
		for _, a := range work {
			if actsThisRound(cc, arcOf, a, &sc.dirty) {
				actors = append(actors, a)
			}
		}
		for _, a := range actors {
			olds = append(olds, slots[a])
			slots[a] = None
			slots[a] = cc.smallestFree(slots, a)
			sc.dirty.Remove(a)
		}
		// Incremental usable maintenance: only the actors, and the arcs of
		// their conflict sets sitting on an actor's old or new slot, can
		// have changed status this round.
		for i, a := range actors {
			ut.moved(a, olds[i])
		}
	}
}

// actsThisRound implements the local priority rule: a acts iff no smaller
// dirty arc conflicts with it.
func actsThisRound(cc *conflictCache, arcOf []graph.Arc, a int32, dirty *IDSet) bool {
	for _, b := range cc.row(a) {
		if dirty.Has(b) && graph.CompareArcs(arcOf[b], arcOf[a]) < 0 {
			return false
		}
	}
	return true
}

// usableTracker maintains UsableArcs incrementally across recolorings by
// tracking only the *unusable* arcs (uncolored, or clashing with a
// conflicting arc). Seeding it from the caller's dirty set is exact under
// Stabilize's own precondition — every arc violating the schedule is in the
// dirty set (clashes are symmetric: both members of a same-slot pair are
// unusable AND dirty, so unusable ⊆ dirty) — which makes startup
// O(|dirty|·Δ²) instead of the O(arcs·Δ²) full audit. fraction is exactly
// UsableFraction (same integer counts, same division). moved re-derives the
// status of an arc whose color changed and of the conflicting arcs that
// change can affect; recheck re-derives one arc's status.
type usableTracker struct {
	cc       *conflictCache
	slots    []int32
	unusable *IDSet
	count    int // members of unusable
	total    int
}

func newUsableTracker(cc *conflictCache, slots []int32, unusable *IDSet, total int, seed []int32) *usableTracker {
	t := &usableTracker{cc: cc, slots: slots, unusable: unusable, total: total}
	for _, a := range seed {
		t.recheck(a)
	}
	return t
}

// moved re-derives usable status after actor a went from slot old to its
// current slot (either may be None). a itself is re-checked, and a
// conflicting arc b only when it is colored and holds old or the new slot.
// Soundness: b's status depends on its own slot and on the slots of its
// conflict set; conflict is symmetric, so a is in that set, and a's move
// can only have made a clash on old vanish or one on the new slot appear.
// An uncolored b stays unusable and a b on any other slot is untouched.
func (t *usableTracker) moved(a int32, old int32) {
	t.recheck(a)
	cur := t.slots[a]
	for _, b := range t.cc.row(a) {
		if c := t.slots[b]; c != None && (c == old || c == cur) {
			t.recheck(b)
		}
	}
}

func (t *usableTracker) recheck(a int32) {
	if t.cc.arcDirty(t.slots, a) {
		if t.unusable.Add(a) {
			t.count++
		}
	} else if t.unusable.Remove(a) {
		t.count--
	}
}

func (t *usableTracker) usableCount() int { return t.total - t.count }

func (t *usableTracker) fraction() float64 {
	if t.total == 0 {
		return 1
	}
	return float64(t.usableCount()) / float64(t.total)
}
