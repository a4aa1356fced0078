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
	// conflict-cache syncs this batch cost and the rows they rewrote;
	// CacheRebuilds counts full rebuilds (0 on the steady-state patch
	// path). The session layer exports them per session.
	CachePatches     uint64
	CachePatchedArcs uint64
	CacheRebuilds    uint64
}

// Updater is a live schedule under incremental maintenance. Methods are not
// safe for concurrent use; the session layer serializes access.
type Updater struct {
	g       *graph.Graph
	as      coloring.Assignment
	updates int64

	// Frame accounting, maintained from the per-batch color diff so Slots
	// and Report.FrameLength cost O(1) instead of a full O(m) scan of the
	// assignment per batch: colorCount holds the number of arcs per color,
	// frame the largest color in use.
	colorCount map[int]int
	frame      int

	// heal makes the next successful Apply dirty every arc (see NewHealing).
	heal bool

	// stabilize is the repair rule; nil means coloring.Stabilize. Tests
	// inject failures here to exercise the repair-failure rollback path.
	stabilize func(*graph.Graph, coloring.Assignment, map[graph.Arc]bool) (int, float64, error)
}

// New wraps a valid schedule for incremental maintenance. The graph is
// cloned and the assignment copied, so the caller's instances stay free.
func New(g *graph.Graph, as coloring.Assignment) (*Updater, error) {
	if viols := coloring.Verify(g, as); len(viols) != 0 {
		return nil, fmt.Errorf("incr: initial schedule invalid: %v", viols[0])
	}
	return wrap(g, as), nil
}

// NewHealing wraps a schedule that may be incomplete or conflicting — an
// adversarial start such as every arc uncolored or every arc in one slot.
// The next successful Apply treats every arc of the post-delta topology as
// dirty, so it returns a valid schedule and its report counts the whole
// topology in DirtyArcs; a failed first Apply rolls back and leaves that
// pending for the retry.
func NewHealing(g *graph.Graph, as coloring.Assignment) *Updater {
	up := wrap(g, as)
	up.heal = true
	return up
}

func wrap(g *graph.Graph, as coloring.Assignment) *Updater {
	up := &Updater{g: g.Clone(), as: as.Clone(), colorCount: make(map[int]int)}
	for _, c := range up.as {
		if c != coloring.None {
			up.colorCount[c]++
			if c > up.frame {
				up.frame = c
			}
		}
	}
	return up
}

// Graph returns the current topology (read-only by convention).
func (up *Updater) Graph() *graph.Graph { return up.g }

// Assignment returns the current schedule (read-only by convention).
func (up *Updater) Assignment() coloring.Assignment { return up.as }

// Slots returns the current frame length (maintained incrementally — O(1)).
func (up *Updater) Slots() int { return up.frame }

// Updates returns the number of batches applied so far.
func (up *Updater) Updates() int64 { return up.updates }

// mutation is one journaled edge change. Colors are not journaled here:
// rollback restores them from the batch's first-touch snapshot, which also
// covers colors the repair phase rewrote.
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
	// Phase 1 — apply the delta, journaling every edge change and the
	// pre-batch color of every touched arc (first touch wins, so colors
	// snapshot the state before the batch regardless of event order).
	var muts []mutation
	oldColor := make(map[graph.Arc]int)
	for i, ev := range events {
		if err := up.applyEvent(ev, &muts, oldColor); err != nil {
			up.rollback(muts, oldColor)
			return nil, fmt.Errorf("incr: event %d %v: %w", i, ev, err)
		}
	}
	rep := &Report{Events: len(events), MinUsable: 1}

	// Phase 2 — dirty set. Touched arcs still present are the batch's new
	// arcs (removal deleted their colors, so a removed-then-readded arc is
	// new again); they enter uncolored. Colored arcs enter when
	// endpointAudit finds them in a violated pair (link removals only
	// remove conflicts and need no repair). A healing updater's first
	// batch dirties every arc instead.
	touched := sortedArcs(oldColor)
	dirty := make(map[graph.Arc]bool)
	if up.heal {
		for _, a := range up.g.ArcsView() {
			dirty[a] = true
			firstTouch(oldColor, up.as, a)
		}
	}
	var added []graph.Arc
	for _, a := range touched {
		if up.g.HasEdge(a.From, a.To) {
			added = append(added, a)
			dirty[a] = true
		}
	}
	for _, w := range endpointAudit(up.g, up.as, added) {
		for _, d := range [2]graph.Arc{w.A, w.B} {
			if !dirty[d] {
				dirty[d] = true
				firstTouch(oldColor, up.as, d)
			}
		}
	}
	rep.DirtyArcs = len(dirty)

	// Phase 3 — repair with the shared stabilize rule, then diff against
	// the pre-batch snapshot. Only dirty arcs can act, so the delta below
	// is complete; it is minimal because an arc that kept its slot (even a
	// dirty one repaired by its partner moving) produces no entry. A repair
	// failure rolls everything back: every arc the stabilizer touched is in
	// the dirty set, every dirty arc is first-touch snapshotted, so
	// restoring the snapshot recovers the exact pre-batch schedule.
	stab := up.stabilize
	if stab == nil {
		stab = coloring.Stabilize
	}
	rounds, minUsable, err := stab(up.g, up.as, dirty)
	if err != nil {
		up.rollback(muts, oldColor)
		return nil, fmt.Errorf("incr: repair failed: %w", err)
	}
	up.updates++
	up.heal = false
	rep.Rounds = rounds
	rep.MinUsable = minUsable
	for _, a := range sortedArcs(oldColor) {
		old := oldColor[a]
		cur := up.as[a]
		if up.g.HasEdge(a.From, a.To) {
			if cur != old {
				rep.Recolored = append(rep.Recolored, ArcSlot{From: a.From, To: a.To, Slot: cur})
			}
		} else if old != coloring.None {
			rep.Dropped = append(rep.Dropped, ArcSlot{From: a.From, To: a.To, Slot: old})
		}
		// Frame accounting: every color change in the batch runs through
		// this diff, so adjusting per-color counts here keeps frame exact
		// without rescanning the assignment.
		if cur != old {
			up.uncount(old)
			up.count(cur)
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

// endpointAudit returns the violated pairs of colored arcs that the added
// arcs' links can have created. A new link {u,v} makes a pair conflict only
// through the hidden-terminal clause, with u or v as the head of one member
// and the tail of the other, so every such pair has a member incident to u
// or v: auditing the colored arcs incident to the added arcs' endpoints,
// each once, finds every violation the batch introduced into a schedule
// that was valid before it.
func endpointAudit(g *graph.Graph, as coloring.Assignment, added []graph.Arc) []coloring.Violation {
	// added holds both arcs of every added link, so their tails are all
	// the links' endpoints.
	ends := make([]int, 0, len(added))
	for _, a := range added {
		ends = append(ends, a.From)
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	var audit []graph.Arc
	for _, x := range ends {
		for _, b := range g.IncidentArcsView(x) {
			// An arc between two endpoints is queued from the smaller one.
			if w := b.From + b.To - x; w < x {
				if _, ok := slices.BinarySearch(ends, w); ok {
					continue
				}
			}
			if as[b] != coloring.None {
				audit = append(audit, b)
			}
		}
	}
	return coloring.AuditArcs(g, as, audit)
}

// count/uncount maintain the per-color arc counts and the running frame
// length. Lowering the frame walks down past emptied colors; the walk is
// paid for by the increments that raised it.
func (up *Updater) count(c int) {
	if c == coloring.None {
		return
	}
	up.colorCount[c]++
	if c > up.frame {
		up.frame = c
	}
}

func (up *Updater) uncount(c int) {
	if c == coloring.None {
		return
	}
	up.colorCount[c]--
	if up.colorCount[c] == 0 {
		delete(up.colorCount, c)
	}
	for up.frame > 0 && up.colorCount[up.frame] == 0 {
		up.frame--
	}
}

// applyEvent applies one event to the live topology, journaling each edge
// change into muts. Validation failures wrap ErrBadDelta and leave muts
// holding exactly the changes made so far, for rollback.
func (up *Updater) applyEvent(ev dynamic.Event, muts *[]mutation, oldColor map[graph.Arc]int) error {
	switch ev.Kind {
	case dynamic.LinkUp:
		return up.addLink(ev.U, ev.V, muts, oldColor)
	case dynamic.LinkDown:
		return up.dropLink(ev.U, ev.V, muts, oldColor)
	case dynamic.NodeFail:
		if err := up.checkNode(ev.U); err != nil {
			return err
		}
		for _, w := range up.g.Neighbors(ev.U) {
			if err := up.dropLink(ev.U, w, muts, oldColor); err != nil {
				return err
			}
		}
		return nil
	case dynamic.NodeJoin:
		if err := up.checkNode(ev.U); err != nil {
			return err
		}
		for _, w := range ev.Peers {
			if err := up.addLink(ev.U, w, muts, oldColor); err != nil {
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
				if err := up.dropLink(ev.U, w, muts, oldColor); err != nil {
					return err
				}
			}
		}
		for _, w := range ev.Peers {
			if !up.g.HasEdge(ev.U, w) {
				if err := up.addLink(ev.U, w, muts, oldColor); err != nil {
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

func (up *Updater) addLink(u, v int, muts *[]mutation, oldColor map[graph.Arc]int) error {
	if err := up.checkNode(u); err != nil {
		return err
	}
	if err := up.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self link {%d,%d}: %w", u, v, ErrBadDelta)
	}
	if up.g.HasEdge(u, v) {
		return fmt.Errorf("link-up on existing edge {%d,%d}: %w", u, v, ErrBadDelta)
	}
	au, av := graph.Arc{From: u, To: v}, graph.Arc{From: v, To: u}
	firstTouch(oldColor, up.as, au)
	firstTouch(oldColor, up.as, av)
	up.g.AddEdge(u, v)
	*muts = append(*muts, mutation{added: true, u: u, v: v})
	return nil
}

func (up *Updater) dropLink(u, v int, muts *[]mutation, oldColor map[graph.Arc]int) error {
	if err := up.checkNode(u); err != nil {
		return err
	}
	if err := up.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self link {%d,%d}: %w", u, v, ErrBadDelta)
	}
	if !up.g.HasEdge(u, v) {
		return fmt.Errorf("link-down on missing edge {%d,%d}: %w", u, v, ErrBadDelta)
	}
	au, av := graph.Arc{From: u, To: v}, graph.Arc{From: v, To: u}
	firstTouch(oldColor, up.as, au)
	firstTouch(oldColor, up.as, av)
	*muts = append(*muts, mutation{added: false, u: u, v: v})
	delete(up.as, au)
	delete(up.as, av)
	up.g.RemoveEdge(u, v)
	return nil
}

// rollback restores the exact pre-batch state after a failed batch: the
// journaled edge changes are undone in reverse, then every first-touched
// arc gets its snapshotted color back. The snapshot covers everything that
// can have changed — phase 1 first-touches every arc it recolors or drops,
// phase 2 first-touches every arc it dirties, and the stabilizer only
// recolors dirty arcs — so after restoration the schedule is byte-identical
// to the pre-batch one, whether the batch failed validation or repair.
func (up *Updater) rollback(muts []mutation, oldColor map[graph.Arc]int) {
	for i := len(muts) - 1; i >= 0; i-- {
		m := muts[i]
		if m.added {
			up.g.RemoveEdge(m.u, m.v)
		} else {
			up.g.AddEdge(m.u, m.v)
		}
	}
	for _, a := range sortedArcs(oldColor) {
		if c := oldColor[a]; c == coloring.None {
			delete(up.as, a)
		} else {
			up.as[a] = c
		}
	}
}

// firstTouch snapshots a's pre-batch color the first time the batch touches
// it; later touches keep the original.
func firstTouch(oldColor map[graph.Arc]int, as coloring.Assignment, a graph.Arc) {
	if _, ok := oldColor[a]; !ok {
		oldColor[a] = as[a]
	}
}

// sortedArcs returns the keys of m ordered by (From, To).
func sortedArcs(m map[graph.Arc]int) []graph.Arc {
	out := make([]graph.Arc, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.SortFunc(out, graph.CompareArcs)
	return out
}
