package graph

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// topoCache is a snapshot of the graph's sorted adjacency structure. It is
// built lazily on first use and shared by every reader. A mutation
// (AddEdge/RemoveEdge) normally *patches* it in place: the per-node rows of
// the two endpoints are replaced copy-on-write (previously returned view
// slices are never written through), the global arc list is marked stale and
// rebuilt lazily, and the id table is updated for just the two arcs that
// appeared or vanished. Only when no cache exists yet — or patching is
// disabled via SetTopoPatching — does a mutation fall back to dropping the
// cache wholesale.
//
// Invariants: every row slice is sorted (neighbor lists ascending, arc lists
// by (From, To)), row slices are never mutated after publication (a patch
// swaps in freshly allocated rows), and concurrent readers may share the
// slices freely. Callers of the *View accessors must treat the returned
// slices as read-only; a slice stays valid (describing the topology at the
// time of the call) until the caller lets go of it, but after a mutation it
// no longer reflects the live graph.
type topoCache struct {
	nbrs     [][]int // per-node sorted neighbor lists
	incident [][]Arc // per-node arcs touching v, sorted by (From, To)
	out      [][]Arc // per-node arcs leaving v, sorted by To
	in       [][]Arc // per-node arcs entering v, sorted by From

	// Every live arc has a stable id: ids survive patches (an arc keeps its
	// id until removed) and removed ids are recycled LIFO through freeIDs,
	// so ids stay dense in [0, idBound). After a fresh build ids coincide
	// with positions in the sorted arc list; patches break that coincidence
	// — consumers needing sorted order iterate ArcsView, consumers needing a
	// dense table index size it ArcIDBound. outIDs and incidentIDs hold the
	// ids of the out and incident rows entry for entry (immutable rows like
	// theirs); arcOf maps an id back to its arc and is written in place, so
	// the entry of a freed id is stale until the id is reused.
	outIDs      [][]int32
	incidentIDs [][]int32
	arcOf       []Arc
	freeIDs     []int32
	idBound     int32

	// arcs caches the sorted global arc list. A patch clears it; the next
	// ArcsView rebuilds it from the (already sorted) out rows in one
	// append pass. Atomic so the lazy rebuild double-checks race-free.
	// arcsMu is deliberately separate from auxMu: Aux build callbacks run
	// under auxMu and are allowed to call ArcsView.
	arcs   atomic.Pointer[[]Arc]
	arcsMu sync.Mutex

	// aux holds derived structures (e.g. coloring's distance-2 conflict
	// sets) keyed by an owner-chosen key. A patch deletes every aux value
	// except those implementing AuxPatchable, which survive and re-sync
	// themselves from the mutation journal.
	auxMu sync.Mutex
	aux   map[any]any
}

// AuxPatchable marks an Aux value that stays correct across topology
// patches by consuming the graph's edge-delta journal (MutEpoch /
// EdgeDeltasSince). Values without the marker are deleted from the aux
// table on every mutation, exactly as the old invalidate-wholesale path
// did for them.
type AuxPatchable interface {
	AuxSurvivesMutation()
}

// AuxSharable marks an Aux value that a clone made by CloneShared can adopt.
// ShareAux returns the clone's value, or nil when the clone should build its
// own. It runs with the source's aux table locked, so it must not call Aux.
type AuxSharable interface {
	ShareAux(src, dst *Graph) any
}

// EdgeDelta is one journaled topology mutation: the edge, its direction of
// change, and the stable arc ids of (U,V) and (V,U) — assigned ids for an
// addition, the just-freed ids for a removal.
type EdgeDelta struct {
	U, V       int
	Added      bool
	IDUV, IDVU int32
}

// maxTopoJournal bounds the mutation journal. Aux consumers further behind
// than this rebuild from scratch instead of replaying — the bound only
// exists so an unread journal cannot grow without limit.
const maxTopoJournal = 512

// topo returns the current topology cache, building it if needed. Racing
// builders produce identical caches, so losing the CompareAndSwap just
// discards a duplicate.
func (g *Graph) topo() *topoCache {
	if c := g.cache.Load(); c != nil {
		return c
	}
	c := g.buildTopo()
	if g.cache.CompareAndSwap(nil, c) {
		return c
	}
	return g.cache.Load()
}

func (g *Graph) buildTopo() *topoCache {
	n := len(g.adj)
	c := &topoCache{
		nbrs:        make([][]int, n),
		incident:    make([][]Arc, n),
		out:         make([][]Arc, n),
		in:          make([][]Arc, n),
		outIDs:      make([][]int32, n),
		incidentIDs: make([][]int32, n),
	}
	arcs := make([]Arc, 0, 2*g.m)
	// inIDs[v] collects the ids of the arcs entering v in tail order: tails
	// are visited ascending, so each row comes out sorted like in[v].
	inIDs := make([][]int32, n)
	for v := 0; v < n; v++ {
		nb := make([]int, 0, len(g.adj[v]))
		for u := range g.adj[v] {
			nb = append(nb, u)
		}
		sort.Ints(nb)
		c.nbrs[v] = nb
		inIDs[v] = make([]int32, 0, len(nb))
	}
	for v := 0; v < n; v++ {
		nb := c.nbrs[v]
		out := make([]Arc, len(nb))
		in := make([]Arc, len(nb))
		ids := make([]int32, len(nb))
		for i, u := range nb {
			out[i] = Arc{From: v, To: u}
			in[i] = Arc{From: u, To: v}
			// out[v] is sorted by To and v increases, so ids handed out per
			// node in order are the positions in the global (From, To) order.
			ids[i] = int32(len(arcs) + i)
			inIDs[u] = append(inIDs[u], ids[i])
		}
		c.out[v] = out
		c.in[v] = in
		c.outIDs[v] = ids
		arcs = append(arcs, out...)
	}
	for v := 0; v < n; v++ {
		nb := c.nbrs[v]
		inc := make([]Arc, 0, 2*len(nb))
		incIDs := make([]int32, 0, 2*len(nb))
		// (From, To) order: arcs {u,v} with u < v first, then the {v,*}
		// block, then {u,v} with u > v — each group ascending already.
		lo, _ := slices.BinarySearch(nb, v)
		for i, u := range nb[:lo] {
			inc = append(inc, Arc{From: u, To: v})
			incIDs = append(incIDs, inIDs[v][i])
		}
		inc = append(inc, c.out[v]...)
		incIDs = append(incIDs, c.outIDs[v]...)
		for i, u := range nb[lo:] {
			inc = append(inc, Arc{From: u, To: v})
			incIDs = append(incIDs, inIDs[v][lo+i])
		}
		c.incident[v] = inc
		c.incidentIDs[v] = incIDs
	}
	c.arcOf = slices.Clone(arcs)
	c.idBound = int32(len(arcs))
	c.arcs.Store(&arcs)
	return c
}

// share returns the clone dst's copy of the cache of src: the outer row
// tables are copied and the immutable rows shared, so ids agree between the
// two graphs, while the id table and free list, which patches write in
// place, are copied whole. Aux values implementing AuxSharable are adopted.
func (t *topoCache) share(src, dst *Graph) *topoCache {
	c := &topoCache{
		nbrs:        slices.Clone(t.nbrs),
		incident:    slices.Clone(t.incident),
		out:         slices.Clone(t.out),
		in:          slices.Clone(t.in),
		outIDs:      slices.Clone(t.outIDs),
		incidentIDs: slices.Clone(t.incidentIDs),
		arcOf:       slices.Clone(t.arcOf),
		freeIDs:     slices.Clone(t.freeIDs),
		idBound:     t.idBound,
	}
	c.arcs.Store(t.arcs.Load())
	t.auxMu.Lock()
	defer t.auxMu.Unlock()
	for k, v := range t.aux {
		s, ok := v.(AuxSharable)
		if !ok {
			continue
		}
		if w := s.ShareAux(src, dst); w != nil {
			if c.aux == nil {
				c.aux = make(map[any]any)
			}
			c.aux[k] = w
		}
	}
	return c
}

// invalidate drops the topology cache (and every aux structure hanging off
// it). Called by the fallback mutation path and bulk loaders.
func (g *Graph) invalidate() { g.cache.Store(nil) }

// resetTopo discards all cached topology state after a wholesale graph
// replacement (deserialization): the epoch advances so stale incremental
// consumers cannot mistake the new graph for the old, and the journal is
// truncated so they fall back to a full rebuild.
func (g *Graph) resetTopo() {
	e := g.epoch.Load() + 1
	g.epoch.Store(e)
	g.journalReset(e)
	g.invalidate()
}

// mutated records one applied edge change: it bumps the mutation epoch and
// either patches the live cache in place (journaling the delta for aux
// consumers) or, when no cache exists or patching is off, resets the journal
// and drops the cache as the pre-patch implementation did.
func (g *Graph) mutated(u, v int, added bool) {
	e := g.epoch.Load() + 1
	g.epoch.Store(e)
	c := g.cache.Load()
	if c == nil || g.noPatch {
		g.journalReset(e)
		g.invalidate()
		return
	}
	var d EdgeDelta
	if added {
		d = c.patchAdd(u, v)
	} else {
		d = c.patchRemove(u, v)
	}
	d.U, d.V, d.Added = u, v, added
	g.journalAppend(d)
	c.dropStaleAux()
}

// journalReset discards the journal; the next possible entry is epoch e+1.
func (g *Graph) journalReset(e uint64) {
	g.journal = g.journal[:0]
	g.jFirst = e + 1
}

// journalAppend records d (the delta of the current epoch), compacting the
// backing slice once it doubles past the retention bound.
func (g *Graph) journalAppend(d EdgeDelta) {
	g.journal = append(g.journal, d)
	if len(g.journal) > 2*maxTopoJournal {
		drop := len(g.journal) - maxTopoJournal
		copy(g.journal, g.journal[drop:])
		g.journal = g.journal[:maxTopoJournal]
		g.jFirst += uint64(drop)
	}
}

// MutEpoch returns the number of mutations applied to g so far. Aux
// consumers snapshot it at build time and hand it back to EdgeDeltasSince
// to learn what changed.
func (g *Graph) MutEpoch() uint64 { return g.epoch.Load() }

// EdgeDeltasSince returns the journaled mutations applied after the given
// epoch, oldest first, and whether the journal still covers that range. A
// false answer means entries were truncated (or a non-patched mutation broke
// continuity) and the consumer must rebuild from the live topology instead
// of replaying. The returned slice aliases the journal: it is valid until
// the next mutation.
func (g *Graph) EdgeDeltasSince(epoch uint64) ([]EdgeDelta, bool) {
	cur := g.epoch.Load()
	if epoch == cur {
		return nil, true
	}
	if epoch > cur || g.jFirst > epoch+1 {
		return nil, false
	}
	lo := epoch + 1 - g.jFirst
	hi := cur + 1 - g.jFirst
	if hi > uint64(len(g.journal)) {
		return nil, false
	}
	return g.journal[lo:hi], true
}

// SetTopoPatching toggles the in-place cache patch path (on by default).
// With patching off every mutation drops the cache wholesale and rebuilds
// on next read — the reference behavior the patch-vs-rebuild conformance
// oracle compares against. Toggling itself keeps the current cache and its
// arc ids (they describe the live topology either way); only the journal
// restarts, so aux consumers cannot replay across the switch.
func (g *Graph) SetTopoPatching(enabled bool) {
	g.noPatch = !enabled
	g.journalReset(g.epoch.Load())
}

// TopoPatching reports whether mutations patch the topology cache (the
// default). Without patching every mutation drops the cache, and the next
// read renumbers all arc ids from scratch.
func (g *Graph) TopoPatching() bool { return !g.noPatch }

// allocID hands out a stable arc id for a, recycling freed ids LIFO.
func (c *topoCache) allocID(a Arc) int32 {
	if n := len(c.freeIDs); n > 0 {
		id := c.freeIDs[n-1]
		c.freeIDs = c.freeIDs[:n-1]
		c.arcOf[id] = a
		return id
	}
	c.arcOf = append(c.arcOf, a)
	c.idBound++
	return c.idBound - 1
}

// insertAt returns a fresh exact-size copy of row with x inserted at i, and
// removeAt one without row[i]: row itself is never written — readers may
// share it.
func insertAt[T any](row []T, i int, x T) []T {
	out := make([]T, len(row)+1)
	copy(out, row[:i])
	out[i] = x
	copy(out[i+1:], row[i:])
	return out
}

func removeAt[T any](row []T, i int) []T {
	out := make([]T, len(row)-1)
	copy(out, row[:i])
	copy(out[i:], row[i+1:])
	return out
}

func insertSortedInt(row []int, x int) []int { return insertAt(row, sort.SearchInts(row, x), x) }

func removeSortedInt(row []int, x int) []int { return removeAt(row, sort.SearchInts(row, x)) }

func searchArc(row []Arc, a Arc) int {
	i, _ := slices.BinarySearchFunc(row, a, CompareArcs)
	return i
}

func insertSortedArc(row []Arc, a Arc) []Arc { return insertAt(row, searchArc(row, a), a) }

func removeSortedArc(row []Arc, a Arc) []Arc { return removeAt(row, searchArc(row, a)) }

// insertArcID returns fresh copies of an arc row and its parallel id row
// with a (id) inserted at its sorted position.
func insertArcID(row []Arc, ids []int32, a Arc, id int32) ([]Arc, []int32) {
	i := searchArc(row, a)
	return insertAt(row, i, a), insertAt(ids, i, id)
}

// removeArcID returns fresh copies of an arc row and its parallel id row
// without a, and a's id.
func removeArcID(row []Arc, ids []int32, a Arc) ([]Arc, []int32, int32) {
	i := searchArc(row, a)
	return removeAt(row, i), removeAt(ids, i), ids[i]
}

// patchAdd splices the edge {u,v} into the cache: copy-on-write row updates
// for the two endpoints, fresh stable ids for the two new arcs, stale global
// arc list. O(deg(u)+deg(v)) — nothing outside the endpoints' rows is
// touched.
func (c *topoCache) patchAdd(u, v int) EdgeDelta {
	auv, avu := Arc{From: u, To: v}, Arc{From: v, To: u}
	d := EdgeDelta{IDUV: c.allocID(auv), IDVU: c.allocID(avu)}
	c.nbrs[u] = insertSortedInt(c.nbrs[u], v)
	c.nbrs[v] = insertSortedInt(c.nbrs[v], u)
	c.out[u], c.outIDs[u] = insertArcID(c.out[u], c.outIDs[u], auv, d.IDUV)
	c.out[v], c.outIDs[v] = insertArcID(c.out[v], c.outIDs[v], avu, d.IDVU)
	c.in[u] = insertSortedArc(c.in[u], avu)
	c.in[v] = insertSortedArc(c.in[v], auv)
	for _, x := range [2]int{u, v} {
		inc, ids := insertArcID(c.incident[x], c.incidentIDs[x], auv, d.IDUV)
		c.incident[x], c.incidentIDs[x] = insertArcID(inc, ids, avu, d.IDVU)
	}
	c.arcs.Store(nil)
	return d
}

// patchRemove splices the edge {u,v} out of the cache, freeing the two arc
// ids for reuse.
func (c *topoCache) patchRemove(u, v int) EdgeDelta {
	auv, avu := Arc{From: u, To: v}, Arc{From: v, To: u}
	var d EdgeDelta
	c.nbrs[u] = removeSortedInt(c.nbrs[u], v)
	c.nbrs[v] = removeSortedInt(c.nbrs[v], u)
	c.out[u], c.outIDs[u], d.IDUV = removeArcID(c.out[u], c.outIDs[u], auv)
	c.out[v], c.outIDs[v], d.IDVU = removeArcID(c.out[v], c.outIDs[v], avu)
	c.in[u] = removeSortedArc(c.in[u], avu)
	c.in[v] = removeSortedArc(c.in[v], auv)
	for _, x := range [2]int{u, v} {
		inc, ids, _ := removeArcID(c.incident[x], c.incidentIDs[x], auv)
		c.incident[x], c.incidentIDs[x], _ = removeArcID(inc, ids, avu)
	}
	c.freeIDs = append(c.freeIDs, d.IDUV, d.IDVU)
	c.arcs.Store(nil)
	return d
}

// dropStaleAux deletes every aux value that cannot survive a mutation.
func (c *topoCache) dropStaleAux() {
	c.auxMu.Lock()
	for k, v := range c.aux {
		if _, ok := v.(AuxPatchable); !ok {
			delete(c.aux, k)
		}
	}
	c.auxMu.Unlock()
}

// rebuildArcs reconstructs the sorted global arc list from the out rows
// (each sorted by To, node order ascending — so one append pass yields
// (From, To) order). Double-checked under arcsMu so racing readers build it
// once.
func (c *topoCache) rebuildArcs() []Arc {
	c.arcsMu.Lock()
	defer c.arcsMu.Unlock()
	if p := c.arcs.Load(); p != nil {
		return *p
	}
	total := 0
	for v := range c.out {
		total += len(c.out[v])
	}
	arcs := make([]Arc, 0, total)
	for v := range c.out {
		arcs = append(arcs, c.out[v]...)
	}
	c.arcs.Store(&arcs)
	return arcs
}

// NeighborsView returns the sorted neighbors of v as a shared slice. The
// slice is immutable: callers must not modify it. After the next
// AddEdge/RemoveEdge it no longer reflects the live topology.
func (g *Graph) NeighborsView(v int) []int {
	g.check(v)
	return g.topo().nbrs[v]
}

// ArcsView returns all 2m arcs sorted by (From, To) as a shared, read-only
// slice describing the topology at call time.
func (g *Graph) ArcsView() []Arc {
	c := g.topo()
	if p := c.arcs.Load(); p != nil {
		return *p
	}
	return c.rebuildArcs()
}

// IncidentArcsView returns the arcs with v as an endpoint, sorted by
// (From, To), as a shared, read-only slice.
func (g *Graph) IncidentArcsView(v int) []Arc {
	g.check(v)
	return g.topo().incident[v]
}

// OutArcsView returns the arcs leaving v, sorted by head, as a shared,
// read-only slice.
func (g *Graph) OutArcsView(v int) []Arc {
	g.check(v)
	return g.topo().out[v]
}

// InArcsView returns the arcs entering v, sorted by tail, as a shared,
// read-only slice.
func (g *Graph) InArcsView(v int) []Arc {
	g.check(v)
	return g.topo().in[v]
}

// ArcIndex returns a's stable id and whether a is an arc of the graph. Ids
// are dense in [0, ArcIDBound()): after a fresh cache build they coincide
// with positions in ArcsView, and across patched mutations each surviving
// arc keeps its id while removed ids are recycled to later additions. Use
// ArcIDBound — not 2*M() — to size tables indexed by arc id. The lookup is a
// binary search of a.From's neighbors; loops over rows read the id views
// (OutArcIDsView, IncidentArcIDsView) instead.
func (g *Graph) ArcIndex(a Arc) (int, bool) {
	if a.From < 0 || a.From >= len(g.adj) {
		return 0, false
	}
	c := g.topo()
	nb := c.nbrs[a.From]
	i := sort.SearchInts(nb, a.To)
	if i == len(nb) || nb[i] != a.To {
		return 0, false
	}
	return int(c.outIDs[a.From][i]), true
}

// ArcIDBound returns the exclusive upper bound of the stable arc ids
// currently assigned (at least 2*M(), more after net removals whose ids
// have not been recycled yet).
func (g *Graph) ArcIDBound() int { return int(g.topo().idBound) }

// OutArcIDsView returns the stable ids of OutArcsView(v), entry for entry,
// as a shared, read-only slice.
func (g *Graph) OutArcIDsView(v int) []int32 {
	g.check(v)
	return g.topo().outIDs[v]
}

// OutRowsView returns two tables of one topology snapshot: nbrs[v] is
// NeighborsView(v) and ids[v] is OutArcIDsView(v), entry for entry, so
// ids[v][i] is the id of arc (v, nbrs[v][i]). Loops that visit many nodes
// read the tables once instead of calling the per-node views, which check
// their node and load the snapshot on every call; indexing them with a node
// out of range panics. Both tables and their rows are shared and read-only.
func (g *Graph) OutRowsView() (nbrs [][]int, ids [][]int32) {
	c := g.topo()
	return c.nbrs, c.outIDs
}

// IncidentArcIDsView returns the stable ids of IncidentArcsView(v), entry
// for entry, as a shared, read-only slice.
func (g *Graph) IncidentArcIDsView(v int) []int32 {
	g.check(v)
	return g.topo().incidentIDs[v]
}

// ArcsByIDView returns the id table: entry id is the live arc with that
// stable id, for every id ArcIndex hands out. Entries of freed ids are
// stale. The slice is shared and read-only, and unlike the row views it is
// written in place by mutations: it is valid until the next AddEdge or
// RemoveEdge.
func (g *Graph) ArcsByIDView() []Arc { return g.topo().arcOf }

// Aux returns the auxiliary value for key, invoking build at most once per
// build of the topology cache to create it. Values not implementing
// AuxPatchable are discarded on any AddEdge/RemoveEdge and rebuilt by the
// next Aux call against the new topology; AuxPatchable values survive
// patched mutations and are expected to re-sync themselves via MutEpoch/
// EdgeDeltasSince. build must not mutate the graph and must produce a value
// safe for concurrent readers, since the result is shared. Distinct
// packages should use distinct unexported key types to avoid collisions.
func (g *Graph) Aux(key any, build func() any) any {
	c := g.topo()
	c.auxMu.Lock()
	defer c.auxMu.Unlock()
	if c.aux == nil {
		c.aux = make(map[any]any)
	}
	if v, ok := c.aux[key]; ok {
		return v
	}
	v := build()
	c.aux[key] = v
	return v
}
