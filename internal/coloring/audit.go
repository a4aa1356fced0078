package coloring

import (
	"math"
	"sync"

	"fdlsp/internal/graph"
)

// AuditArcs checks just the arcs with the given stable ids against the
// dense slot store slots (see SlotsOf): each is reported uncolored (a
// Violation with B == A and Color None) or checked for a color clash
// against its distance-2 conflict row from the warm per-graph cache. Each
// violated pair is reported once, ordered (smaller arc first), in a
// deterministic order: by the first audited member, then by row position.
// This is the incremental counterpart of Verify: auditing the dirty arcs
// after a perturbation costs O(|dirty|·Δ²) on the cached conflict rows
// instead of re-verifying the whole schedule, which is what lets a churn
// soak probe residual conflicts every repair round.
//
// Soundness of dirty-set auditing: a topology change can only create a new
// violated pair if at least one member's conflict set changed, and a
// recoloring only if a member was recolored — so auditing the changed and
// recolored arcs (and trusting the prior schedule for the rest) sees every
// violation introduced since the schedule was last clean.
func AuditArcs(g *graph.Graph, slots []int32, ids []int32) []Violation {
	cc := cacheOf(g)
	arcOf := g.ArcsByIDView()
	sc := getScratch(g.ArcIDBound())
	defer scratchPool.Put(sc)
	// done holds the audited ids already scanned: a pair whose other member
	// is done was reported from that member's scan.
	done := &sc.dirty
	var viols []Violation
	for _, a := range ids {
		if !done.Add(a) {
			continue
		}
		c := slots[a]
		if c == None {
			viols = append(viols, Violation{A: arcOf[a], B: arcOf[a], Color: None})
			continue
		}
		for _, b := range cc.row(a) {
			if slots[b] != c || done.Has(b) {
				continue
			}
			v := Violation{A: arcOf[a], B: arcOf[b], Color: int(c)}
			if graph.CompareArcs(v.B, v.A) < 0 {
				v.A, v.B = v.B, v.A
			}
			viols = append(viols, v)
		}
	}
	return viols
}

// UsableArcs counts the arcs of g whose slot can actually fire under the
// dense slot store slots: the arc is colored and no conflicting arc shares
// its color. During repair this is the live capacity of the TDMA frame — a
// conflicting pair jams both transmissions, an uncolored arc has no slot at
// all — and usable/total is the fraction-of-frame-usable metric the soak
// driver tracks while the schedule heals. Runs on the warm conflict cache:
// O(m·Δ²), no allocation beyond the cache itself.
func UsableArcs(g *graph.Graph, slots []int32) (usable, total int) {
	cc := cacheOf(g)
	for v := 0; v < g.N(); v++ {
		for _, id := range g.OutArcIDsView(v) {
			total++
			if !cc.arcDirty(slots, id) {
				usable++
			}
		}
	}
	return usable, total
}

// UsableFraction returns UsableArcs as a ratio in [0,1]; an empty graph
// counts as fully usable (there is nothing to schedule).
func UsableFraction(g *graph.Graph, slots []int32) float64 {
	usable, total := UsableArcs(g, slots)
	if total == 0 {
		return 1
	}
	return float64(usable) / float64(total)
}

// arcDirty reports whether arc id needs repair under slots: no slot, or a
// conflicting arc holds the same slot. An arc is usable iff it is not
// dirty.
func (c *conflictCache) arcDirty(slots []int32, id int32) bool {
	col := slots[id]
	if col == None {
		return true
	}
	for _, b := range c.row(id) {
		if slots[b] == col {
			return true
		}
	}
	return false
}

// IDSet is a reusable set over stable arc ids: an id is a member while its
// stamp equals the current generation, so emptying the set is one
// increment. The zero value is an empty set; Reset sizes it.
type IDSet struct {
	at  []uint32
	gen uint32
}

// Reset empties the set and sizes it for ids below bound.
func (s *IDSet) Reset(bound int) {
	if len(s.at) < bound {
		s.at = append(s.at, make([]uint32, bound-len(s.at))...)
	}
	if s.gen == math.MaxUint32 {
		clear(s.at)
		s.gen = 0
	}
	s.gen++
}

// Add inserts id and reports whether it was new.
func (s *IDSet) Add(id int32) bool {
	if s.at[id] == s.gen {
		return false
	}
	s.at[id] = s.gen
	return true
}

// Has reports whether id is a member.
func (s *IDSet) Has(id int32) bool { return s.at[id] == s.gen }

// Remove deletes id and reports whether it was a member.
func (s *IDSet) Remove(id int32) bool {
	if s.at[id] != s.gen {
		return false
	}
	s.at[id] = 0
	return true
}

// scratch is the id-indexed working state of AuditArcs and Stabilize,
// pooled so a steady stream of calls allocates nothing per call.
type scratch struct {
	dirty, unusable IDSet
	work, actors    []int32
	olds            []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(bound int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.dirty.Reset(bound)
	sc.unusable.Reset(bound)
	return sc
}
