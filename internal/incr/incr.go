// Package incr is the one way this repository maintains a live schedule
// under topology churn: every caller that changes the topology of a
// scheduled network — fdlspd's POST /v1/session API, the churn soak
// (internal/soak), the ext-churn and ext-rejoin experiments and the facade —
// hands an Updater a batch of dynamic.Events, and the Updater answers with
// the minimal recolor set, the repair-round count and the new frame length.
//
// Per batch the Updater applies the topology delta, derives the dirty arc
// set on the warm distance-2 conflict cache (the new arcs plus every
// existing pair the new adjacency makes clash — the paper's locality
// argument guarantees nothing outside the 2-hop neighborhood of a change
// can need a new slot), and repairs it with coloring.Stabilize, the
// distributed-round rule with the ≤|dirty| convergence bound (DESIGN.md
// §11). Batches are atomic: every event is validated as it applies and
// a failed batch rolls the topology and schedule back to their pre-batch
// state, so a client error (ErrBadDelta) never corrupts the session.
//
// Determinism contract: Apply is a pure function of the initial schedule
// and the event-batch sequence. Worklists are sorted before use and no map
// iteration order reaches the result, so a fixed update stream produces
// byte-identical reports at any GOMAXPROCS — the session API's determinism
// tests pin this.
package incr

import (
	"errors"
	"fmt"
	"slices"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
)

// ErrBadDelta marks validation failures of a client's event batch — an
// out-of-range node, a link-up on an existing edge, a link-down on a
// missing one, a self link, an unknown event kind. Callers (the HTTP
// layer) classify these as the client's bug, not the service's.
var ErrBadDelta = errors.New("bad delta")

// ArcSlot is one arc→slot binding of a recolor delta.
type ArcSlot struct {
	From int `json:"from"`
	To   int `json:"to"`
	Slot int `json:"slot"`
}

// Report is the outcome of one applied batch: the minimal recolor delta
// plus the repair accounting.
type Report struct {
	// Events is the number of events the batch carried.
	Events int
	// DirtyArcs is the size of the dirty set entering repair.
	DirtyArcs int
	// Rounds is the distributed repair rounds the stabilizer needed
	// (bounded by |dirty|).
	Rounds int
	// MinUsable is the worst usable-frame fraction observed during repair.
	MinUsable float64
	// Recolored lists, sorted by (from, to), every arc still in the
	// topology whose slot differs from before the batch — new arcs with
	// their first slot, plus repaired neighbors. This is the minimal
	// re-deployment set: nodes not incident to these arcs keep their
	// timetable untouched.
	Recolored []ArcSlot
	// Dropped lists, sorted by (from, to), the arcs removed with their
	// links, each with the slot it freed.
	Dropped []ArcSlot
	// FrameLength is the TDMA frame length after the batch.
	FrameLength int
	// CachePatches and CachePatchedArcs count the incremental distance-2
	// conflict-cache syncs this batch cost and the rows they dropped (each
	// rebuilt when next read); CacheRebuilds counts full rebuilds (0 on the
	// steady-state patch path). The session layer exports them per session.
	CachePatches     uint64
	CachePatchedArcs uint64
	CacheRebuilds    uint64
}

// Updater is a live schedule under incremental maintenance. Methods are not
// safe for concurrent use; the session layer serializes access.
//
// The schedule lives in a dense slot store indexed by stable arc id
// (graph.ArcIndex) and grown to graph.ArcIDBound, so the audit and the
// repair read a conflicting arc's slot as slots[id]. The Assignment map
// exists only at the boundary: New and NewHealing convert from it and
// Assignment converts back.
type Updater struct {
	g       *graph.Graph
	slots   []int32 // slot by stable arc id; None for uncolored arcs
	updates int64

	// Frame accounting, maintained from the per-batch color diff so Slots
	// and Report.FrameLength cost O(1) instead of a full O(m) scan of the
	// schedule per batch: colorCount holds the number of arcs per color,
	// frame the largest color in use.
	colorCount []int
	frame      int

	// heal makes the next successful Apply dirty every arc (see NewHealing).
	heal bool

	// stabilize is the repair rule; nil means coloring.Stabilize. Tests
	// inject failures here to exercise the repair-failure rollback path.
	stabilize func(g *graph.Graph, slots []int32, dirty []int32) (int, float64, error)

	// Per-batch scratch, reused across batches.
	muts    []mutation
	drops   []drop  // every arc a removal took out, with its slot then
	touched []touch // the batch's arcs at the final topology; ids are the dirty set
	dirty   []int32
	inTouch coloring.IDSet // the ids of touched
}

// drop is one arc a link removal took out of the topology, with the slot it
// held at that moment. An arc's first drop in a batch holds its pre-batch
// slot; a later drop (after a re-add) holds None.
type drop struct {
	a    graph.Arc
	slot int32
}

// touch is one arc of the batch's final topology whose slot the batch may
// change: its id, its pre-batch slot, and whether the batch added it (its
// id is then new, so a rollback restores it through drops instead).
type touch struct {
	id    int32
	old   int32
	added bool
}

// New wraps a valid schedule for incremental maintenance. The graph is
// cloned and the assignment converted, so the caller's instances stay free.
// Every slot must lie in [1, arcs+1]: a valid schedule never needs more.
func New(g *graph.Graph, as coloring.Assignment) (*Updater, error) {
	if viols := coloring.Verify(g, as); len(viols) != 0 {
		return nil, fmt.Errorf("incr: initial schedule invalid: %v", viols[0])
	}
	return wrap(g, as, false)
}

// NewHealing wraps a schedule that may be incomplete or conflicting — an
// adversarial start such as every arc uncolored or every arc in one slot.
// The next successful Apply treats every arc of the post-delta topology as
// dirty, so it returns a valid schedule and its report counts the whole
// topology in DirtyArcs; a failed first Apply rolls back and leaves that
// pending for the retry. Slots outside [1, arcs+1] count as uncolored.
func NewHealing(g *graph.Graph, as coloring.Assignment) *Updater {
	up, _ := wrap(g, as, true)
	return up
}

// wrap clones g with its warm caches (graph.CloneShared): the clone shares
// the conflict rows the caller's schedule was built and verified on, so the
// first Apply patches them instead of rebuilding every row. A slot outside
// [1, arcs+1] is an error, or uncolored when heal is set.
func wrap(g *graph.Graph, as coloring.Assignment, heal bool) (*Updater, error) {
	up := &Updater{g: g.CloneShared(), heal: heal}
	up.slots = coloring.SlotsOf(up.g, as)
	limit := int32(2*up.g.M() + 1)
	for v := 0; v < up.g.N(); v++ {
		for i, id := range up.g.OutArcIDsView(v) {
			if c := up.slots[id]; c > limit || c < 0 {
				if !heal {
					return nil, fmt.Errorf("incr: slot of %v outside [1,%d]", up.g.OutArcsView(v)[i], limit)
				}
				up.slots[id] = coloring.None
			}
			up.count(up.slots[id])
		}
	}
	return up, nil
}

// Graph returns the current topology (read-only by convention).
func (up *Updater) Graph() *graph.Graph { return up.g }

// Assignment returns a copy of the current schedule.
func (up *Updater) Assignment() coloring.Assignment { return coloring.AssignmentOf(up.g, up.slots) }

// Slots returns the current frame length (maintained incrementally — O(1)).
func (up *Updater) Slots() int { return up.frame }

// Updates returns the number of batches applied so far.
func (up *Updater) Updates() int64 { return up.updates }

// mutation is one journaled edge change. Colors are not journaled here:
// rollback restores them from the batch's drops and touches, which also
// cover colors the repair phase rewrote.
type mutation struct {
	added bool
	u, v  int
}

// Apply performs one batch of topology deltas and repairs the schedule.
// The batch is atomic: on any error — a validation failure (ErrBadDelta in
// the chain) or a repair failure — the topology and schedule are exactly as
// before the call, updates is not incremented, and the session stays
// serviceable (the same or a corrected batch can be retried). On success
// the schedule is conflict-free and complete for the updated topology, and
// the returned report carries the minimal recolor delta.
func (up *Updater) Apply(events []dynamic.Event) (*Report, error) {
	cacheBefore := coloring.CacheStats(up.g)
	// Phase 1 — apply the delta, journaling every edge change and every
	// arc a removal takes out with the slot it held.
	up.muts, up.drops, up.touched = up.muts[:0], up.drops[:0], up.touched[:0]
	for i, ev := range events {
		if err := up.applyEvent(ev); err != nil {
			up.rollback()
			return nil, fmt.Errorf("incr: event %d %v: %w", i, ev, err)
		}
	}
	rep := &Report{Events: len(events), MinUsable: 1}

	// Phase 2 — dirty set, each arc first-touched with its pre-batch slot.
	// Arcs the batch added and that are still present enter uncolored; an
	// arc removed and re-added is new again, its pre-batch slot in its
	// first drop. Colored arcs enter when endpointAudit finds them in a
	// violated pair (link removals only remove conflicts and need no
	// repair). A healing updater's first batch dirties every arc instead.
	up.grow()
	up.inTouch.Reset(len(up.slots))
	slices.SortStableFunc(up.drops, func(x, y drop) int { return graph.CompareArcs(x.a, y.a) })
	for _, m := range up.muts {
		if !m.added || !up.g.HasEdge(m.u, m.v) {
			continue
		}
		for _, a := range [2]graph.Arc{{From: m.u, To: m.v}, {From: m.v, To: m.u}} {
			id, _ := up.g.ArcIndex(a)
			up.touch(int32(id), up.preBatch(a), true)
		}
	}
	added := len(up.touched)
	if up.heal {
		for v := 0; v < up.g.N(); v++ {
			for _, id := range up.g.OutArcIDsView(v) {
				up.touch(id, up.slots[id], false)
			}
		}
	}
	for _, w := range up.endpointAudit(up.touched[:added]) {
		for _, d := range [2]graph.Arc{w.A, w.B} {
			id, _ := up.g.ArcIndex(d)
			up.touch(int32(id), up.slots[id], false)
		}
	}
	up.dirty = up.dirty[:0]
	for _, t := range up.touched {
		up.dirty = append(up.dirty, t.id)
	}
	rep.DirtyArcs = len(up.dirty)

	// Phase 3 — repair with the shared stabilize rule, then diff against
	// the pre-batch slots. Only dirty arcs can act, so the delta below is
	// complete; it is minimal because an arc that kept its slot (even a
	// dirty one repaired by its partner moving) produces no entry. A repair
	// failure rolls everything back: every arc the stabilizer touched is in
	// the dirty set, and every dirty arc carries its pre-batch slot, so
	// restoring them recovers the exact pre-batch schedule.
	stab := up.stabilize
	if stab == nil {
		stab = coloring.Stabilize
	}
	rounds, minUsable, err := stab(up.g, up.slots, up.dirty)
	if err != nil {
		up.rollback()
		return nil, fmt.Errorf("incr: repair failed: %w", err)
	}
	up.updates++
	up.heal = false
	rep.Rounds = rounds
	rep.MinUsable = minUsable
	// Frame accounting: every color change in the batch runs through this
	// diff, so adjusting per-color counts here keeps frame exact without
	// rescanning the schedule.
	arcOf := up.g.ArcsByIDView()
	slices.SortFunc(up.touched, func(x, y touch) int { return graph.CompareArcs(arcOf[x.id], arcOf[y.id]) })
	for _, t := range up.touched {
		if cur := up.slots[t.id]; cur != t.old {
			a := arcOf[t.id]
			rep.Recolored = append(rep.Recolored, ArcSlot{From: a.From, To: a.To, Slot: int(cur)})
			up.uncount(t.old)
			up.count(cur)
		}
	}
	for _, d := range up.drops {
		if d.slot != coloring.None && !up.g.HasEdge(d.a.From, d.a.To) {
			rep.Dropped = append(rep.Dropped, ArcSlot{From: d.a.From, To: d.a.To, Slot: int(d.slot)})
			up.uncount(d.slot)
		}
	}
	rep.FrameLength = up.frame
	cacheAfter := coloring.CacheStats(up.g)
	if cacheAfter.Patches >= cacheBefore.Patches && cacheAfter.Builds >= cacheBefore.Builds {
		rep.CachePatches = cacheAfter.Patches - cacheBefore.Patches
		rep.CachePatchedArcs = cacheAfter.PatchedArcs - cacheBefore.PatchedArcs
		rep.CacheRebuilds = cacheAfter.Builds - cacheBefore.Builds
	} else {
		// The cache object itself was replaced mid-batch (counters reset);
		// report the new object's absolute counts rather than a bogus diff.
		rep.CachePatches = cacheAfter.Patches
		rep.CachePatchedArcs = cacheAfter.PatchedArcs
		rep.CacheRebuilds = cacheAfter.Builds
	}
	return rep, nil
}

// grow sizes the slot store for every assigned arc id.
func (up *Updater) grow() {
	if n := up.g.ArcIDBound(); n > len(up.slots) {
		up.slots = append(up.slots, make([]int32, n-len(up.slots))...)
	}
}

// touch adds arc id, with pre-batch slot old, to the batch's touched set the
// first time the batch touches it; later touches keep the original.
func (up *Updater) touch(id, old int32, added bool) {
	if up.inTouch.Add(id) {
		up.touched = append(up.touched, touch{id: id, old: old, added: added})
	}
}

// preBatch returns the pre-batch slot of an arc the batch added: the slot
// of its first drop if the batch removed it before, else None. drops must
// be sorted stably by arc.
func (up *Updater) preBatch(a graph.Arc) int32 {
	i, ok := slices.BinarySearchFunc(up.drops, a, func(d drop, a graph.Arc) int { return graph.CompareArcs(d.a, a) })
	if !ok {
		return coloring.None
	}
	return up.drops[i].slot
}

// endpointAudit returns the violated pairs of colored arcs that the added
// arcs' links can have created. A new link {u,v} makes a pair conflict only
// through the hidden-terminal clause, with u or v as the head of one member
// and the tail of the other, so every such pair has a member incident to u
// or v: auditing the colored arcs incident to the added arcs' endpoints,
// each once, finds every violation the batch introduced into a schedule
// that was valid before it.
func (up *Updater) endpointAudit(added []touch) []coloring.Violation {
	// added holds both arcs of every added link, so their tails are all
	// the links' endpoints.
	arcOf := up.g.ArcsByIDView()
	ends := make([]int, 0, len(added))
	for _, t := range added {
		ends = append(ends, arcOf[t.id].From)
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	var audit []int32
	for _, x := range ends {
		ids := up.g.IncidentArcIDsView(x)
		for i, b := range up.g.IncidentArcsView(x) {
			// An arc between two endpoints is queued from the smaller one.
			if w := b.From + b.To - x; w < x {
				if _, ok := slices.BinarySearch(ends, w); ok {
					continue
				}
			}
			if up.slots[ids[i]] != coloring.None {
				audit = append(audit, ids[i])
			}
		}
	}
	return coloring.AuditArcs(up.g, up.slots, audit)
}

// count/uncount maintain the per-color arc counts and the running frame
// length. Lowering the frame walks down past emptied colors; the walk is
// paid for by the increments that raised it.
func (up *Updater) count(c int32) {
	if c <= coloring.None {
		return
	}
	if int(c) >= len(up.colorCount) {
		up.colorCount = append(up.colorCount, make([]int, int(c)+1-len(up.colorCount))...)
	}
	up.colorCount[c]++
	if int(c) > up.frame {
		up.frame = int(c)
	}
}

func (up *Updater) uncount(c int32) {
	if c <= coloring.None {
		return
	}
	up.colorCount[c]--
	for up.frame > 0 && up.colorCount[up.frame] == 0 {
		up.frame--
	}
}

// applyEvent applies one event to the live topology, journaling each edge
// change into muts. Validation failures wrap ErrBadDelta and leave muts
// holding exactly the changes made so far, for rollback.
func (up *Updater) applyEvent(ev dynamic.Event) error {
	switch ev.Kind {
	case dynamic.LinkUp:
		return up.addLink(ev.U, ev.V)
	case dynamic.LinkDown:
		return up.dropLink(ev.U, ev.V)
	case dynamic.NodeFail:
		if err := up.checkNode(ev.U); err != nil {
			return err
		}
		for _, w := range up.g.Neighbors(ev.U) {
			if err := up.dropLink(ev.U, w); err != nil {
				return err
			}
		}
		return nil
	case dynamic.NodeJoin:
		if err := up.checkNode(ev.U); err != nil {
			return err
		}
		for _, w := range ev.Peers {
			if err := up.addLink(ev.U, w); err != nil {
				return err
			}
		}
		return nil
	case dynamic.NodeMove:
		if err := up.checkNode(ev.U); err != nil {
			return err
		}
		want := make(map[int]bool, len(ev.Peers))
		for _, w := range ev.Peers {
			if err := up.checkNode(w); err != nil {
				return err
			}
			want[w] = true
		}
		for _, w := range up.g.Neighbors(ev.U) {
			if !want[w] {
				if err := up.dropLink(ev.U, w); err != nil {
					return err
				}
			}
		}
		for _, w := range ev.Peers {
			if !up.g.HasEdge(ev.U, w) {
				if err := up.addLink(ev.U, w); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown event kind %d: %w", int(ev.Kind), ErrBadDelta)
	}
}

func (up *Updater) checkNode(v int) error {
	if v < 0 || v >= up.g.N() {
		return fmt.Errorf("node %d outside [0,%d): %w", v, up.g.N(), ErrBadDelta)
	}
	return nil
}

// checkLink validates the endpoints of a link event.
func (up *Updater) checkLink(u, v int) error {
	if err := up.checkNode(u); err != nil {
		return err
	}
	if err := up.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self link {%d,%d}: %w", u, v, ErrBadDelta)
	}
	return nil
}

// addLink adds {u,v}. Its arcs may get ids a removal in the same batch
// freed, so their slots are cleared: a new arc enters uncolored.
func (up *Updater) addLink(u, v int) error {
	if err := up.checkLink(u, v); err != nil {
		return err
	}
	if up.g.HasEdge(u, v) {
		return fmt.Errorf("link-up on existing edge {%d,%d}: %w", u, v, ErrBadDelta)
	}
	up.edit(u, v, true)
	up.muts = append(up.muts, mutation{added: true, u: u, v: v})
	for _, a := range [2]graph.Arc{{From: u, To: v}, {From: v, To: u}} {
		id, _ := up.g.ArcIndex(a)
		up.slots[id] = coloring.None
	}
	return nil
}

// dropLink removes {u,v}, recording both arcs with the slots they held.
func (up *Updater) dropLink(u, v int) error {
	if err := up.checkLink(u, v); err != nil {
		return err
	}
	if !up.g.HasEdge(u, v) {
		return fmt.Errorf("link-down on missing edge {%d,%d}: %w", u, v, ErrBadDelta)
	}
	for _, a := range [2]graph.Arc{{From: u, To: v}, {From: v, To: u}} {
		id, _ := up.g.ArcIndex(a)
		up.drops = append(up.drops, drop{a: a, slot: up.slots[id]})
		up.slots[id] = coloring.None
	}
	up.muts = append(up.muts, mutation{added: false, u: u, v: v})
	up.edit(u, v, false)
	return nil
}

// edit adds or removes the edge {u,v}. A graph without topology patching
// (the patch-vs-rebuild reference) renumbers every arc id on a mutation, so
// there the slot store is re-keyed through the arcs around the change.
func (up *Updater) edit(u, v int, add bool) {
	var as coloring.Assignment
	if !up.g.TopoPatching() {
		as = coloring.AssignmentOf(up.g, up.slots)
	}
	if add {
		up.g.AddEdge(u, v)
	} else {
		up.g.RemoveEdge(u, v)
	}
	if as != nil {
		up.slots = coloring.SlotsOf(up.g, as)
	}
	up.grow()
}

// rollback restores the exact pre-batch state after a failed batch. Arcs
// the batch did not flip keep their ids, so the touched ones get their
// pre-batch slots back by id. The journaled edge changes are then undone
// in reverse; a flipped arc can come back on a different id (ids are
// recycled), so every dropped arc still present gets the slot of its first
// drop by arc. That covers everything that can have changed — phase 1
// records every arc it drops, phase 2 touches every arc it dirties, and the
// stabilizer only recolors dirty arcs — so the schedule is exactly the
// pre-batch one, whether the batch failed validation or repair.
func (up *Updater) rollback() {
	for _, t := range up.touched {
		if !t.added {
			up.slots[t.id] = t.old
		}
	}
	for i := len(up.muts) - 1; i >= 0; i-- {
		m := up.muts[i]
		up.edit(m.u, m.v, !m.added)
	}
	// drops is in batch order, or sorted stably by arc: either way an
	// arc's first drop comes before its later ones, so walking backwards
	// applies it last.
	for i := len(up.drops) - 1; i >= 0; i-- {
		d := up.drops[i]
		if id, ok := up.g.ArcIndex(d.a); ok {
			up.slots[id] = d.slot
		}
	}
}
