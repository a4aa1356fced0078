// Package coloring defines the FDLSP conflict semantics — distance-2 edge
// coloring of a bi-directed graph (paper, Definition 2 and the ILP of
// Section 4) — together with a schedule verifier, a sequential greedy
// colorer (the Δ-approximation reference of Lemma 9/10), local greedy
// coloring used by the distributed algorithms, and the conflict-graph
// construction of Lemma 6.
//
// A color is a TDMA time slot; colors are 1-based and 0 (None) means
// "uncolored". Arc (u,v) colored c means u transmits to v in slot c.
package coloring

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fdlsp/internal/graph"
)

// None is the color of an uncolored arc.
const None = 0

// Conflict reports whether arcs a and b may NOT share a color in graph g.
// Two distinct arcs conflict iff they share an endpoint (ILP constraints
// 4–6) or the head of one is adjacent to the tail of the other (hidden
// terminal problem, ILP constraint 2). An arc never conflicts with itself.
func Conflict(g *graph.Graph, a, b graph.Arc) bool {
	if a == b {
		return false
	}
	// Shared endpoint in any combination.
	if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
		return true
	}
	// Hidden terminal: a's receiver hears b's transmitter, or vice versa.
	if g.HasEdge(a.To, b.From) || g.HasEdge(b.To, a.From) {
		return true
	}
	return false
}

// conflictCache is the per-graph distance-2 conflict structure: for every
// arc (by its stable graph.ArcIndex id) the ids of the conflicting arcs in
// the arcs' (From, To) order, each row an exact-size allocation of its own.
// Rows hold ids, not arcs, so a consumer holding a dense slot store reads a
// conflicting arc's slot as slots[id]: no hashing, no arc comparison. After
// a topology mutation the cache is *patched*, not rebuilt — it survives on
// the graph's aux table (AuxSurvivesMutation) and re-syncs lazily from the
// graph's edge-delta journal, dropping only the rows of arcs within
// distance 2 of the flipped edges' endpoints; a dropped row is rebuilt the
// first time it is read (see row). Only when the journal has been truncated
// (or the graph disabled patching) does it fall back to a full rebuild.
//
// Rows are immutable once published, and the synced epoch is advanced with
// a release store after all of a sync's writes, so the epoch-equality fast
// path in cacheOf orders reads after the sync. A cache without dropped rows
// is read without locking; one holding dropped rows serves reads under mu.
type conflictCache struct {
	conflicts [][]int32     // by stable arc id; nil for unassigned/freed ids and dropped rows
	g         *graph.Graph  // the graph the rows are bound to; dropped rows are rebuilt against it
	dropped   atomic.Bool   // set by patch, cleared by rebuild: a live row may be nil
	epoch     atomic.Uint64 // graph.MutEpoch the rows are synced to
	mu        sync.Mutex    // serializes sync (patch or rebuild) and dropped-row rebuilds

	rows        rowBuilder    // row construction scratch; used under mu once published
	inS         IDSet         // patch's nodes of S; used under mu
	nodes       []int         // patch's S = E ∪ N(E), E first; used under mu
	builds      atomic.Uint64 // full row-set (re)builds
	patches     atomic.Uint64 // incremental syncs applied
	patchedArcs atomic.Uint64 // rows dropped by incremental syncs

	// scratch pools the []bool color-occupancy buffers smallestFeasible
	// uses; pooling keeps the greedy inner loop allocation-free without
	// affecting determinism (buffers are cleared on every use).
	scratch sync.Pool
}

// AuxSurvivesMutation marks the cache as patchable: the graph keeps it
// across AddEdge/RemoveEdge instead of discarding it, and cacheOf re-syncs
// it from the mutation journal.
func (*conflictCache) AuxSurvivesMutation() {}

// ShareAux hands a graph.CloneShared clone a cache that shares this one's
// immutable rows — the clone's arc ids are this graph's — provided the rows
// are synced to src's current topology. Only the outer table is copied, so
// the clone's first update patches instead of rebuilding every row. Dropped
// rows stay dropped in the clone, which rebuilds them against dst.
func (c *conflictCache) ShareAux(src, dst *graph.Graph) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch.Load() != src.MutEpoch() {
		return nil
	}
	s := newCacheShell(dst)
	s.conflicts = slices.Clone(c.conflicts)
	s.dropped.Store(c.dropped.Load())
	s.epoch.Store(dst.MutEpoch())
	return s
}

type conflictAuxKey struct{}

func cacheOf(g *graph.Graph) *conflictCache {
	c := g.Aux(conflictAuxKey{}, func() any { return newConflictCache(g) }).(*conflictCache)
	if c.epoch.Load() != g.MutEpoch() {
		c.sync(g)
	}
	return c
}

func newCacheShell(g *graph.Graph) *conflictCache {
	c := &conflictCache{g: g}
	c.scratch.New = func() any { return new([]bool) }
	return c
}

func newConflictCache(g *graph.Graph) *conflictCache {
	c := newCacheShell(g)
	c.rebuild(g)
	c.epoch.Store(g.MutEpoch())
	return c
}

// row returns the conflict row of the live arc id. While the cache holds no
// dropped rows it is a plain index.
func (c *conflictCache) row(id int32) []int32 {
	if !c.dropped.Load() {
		return c.conflicts[id]
	}
	return c.rowLocked(id)
}

// rowLocked is row's path for a cache holding dropped rows: under mu, a
// dropped row is rebuilt against the synced graph and stored. A live arc
// conflicts at least with its own reverse, so its row is never empty and
// nil always means dropped.
func (c *conflictCache) rowLocked(id int32) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.conflicts[id]
	if r == nil {
		c.rows.fit(c.g.N())
		r = c.rows.row(c.g, c.g.ArcsByIDView()[id], id)
		c.conflicts[id] = r
	}
	return r
}

// rebuild recomputes every row from the live topology. Each row is its own
// exact-size allocation, so a row a later patch drops is freed on its own
// rather than pinning a slab shared with every other row.
func (c *conflictCache) rebuild(g *graph.Graph) {
	conflicts := make([][]int32, g.ArcIDBound())
	c.rows.fit(g.N())
	for v := 0; v < g.N(); v++ {
		ids := g.OutArcIDsView(v)
		for i, a := range g.OutArcsView(v) {
			conflicts[ids[i]] = c.rows.row(g, a, ids[i])
		}
	}
	c.conflicts = conflicts
	c.dropped.Store(false)
	c.builds.Add(1)
}

// sync brings the rows up to the graph's current mutation epoch: replay the
// edge-delta journal when it is contiguous from the cache's epoch (dropping
// only the rows in the 2-hop neighborhood of the flipped edges), or rebuild
// everything when it is not.
func (c *conflictCache) sync(g *graph.Graph) {
	target := g.MutEpoch()
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	if cur == target {
		return
	}
	if ds, ok := g.EdgeDeltasSince(cur); ok {
		c.patch(g, ds)
	} else {
		c.rebuild(g)
	}
	c.epoch.Store(target)
}

// patch replays journaled edge flips against the rows. Correctness rests on
// the paper's locality argument: flipping edge {u,v} changes the conflict
// set only of arcs with an endpoint in {u,v} ∪ N(u) ∪ N(v) — everything
// within distance 2 of the flip, nothing beyond. Replaying a whole batch
// against the final topology is sound by maximality: for the last journaled
// flip affecting an arc a, either a touches that flip's endpoints directly,
// or the adjacency that put a in its 2-hop set still holds at the final
// topology (any later change to it would itself be a later affecting flip).
// So dropping the row of every live arc incident to S = E ∪ N(E), where
// E = ∪ {u_i,v_i} and N is taken at the final topology, drops every stale
// row; row rebuilds each against the final topology when it is next read.
func (c *conflictCache) patch(g *graph.Graph, ds []graph.EdgeDelta) {
	if bound := g.ArcIDBound(); bound > len(c.conflicts) {
		grown := make([][]int32, bound)
		copy(grown, c.conflicts)
		c.conflicts = grown
	}
	c.inS.Reset(g.N())
	c.nodes = c.nodes[:0]
	for _, d := range ds {
		// Rows of removed arcs must die; a freed id recycled by a later
		// addition in the same batch is dropped below (its endpoints are
		// in E).
		c.conflicts[d.IDUV] = nil
		c.conflicts[d.IDVU] = nil
		for _, x := range [2]int{d.U, d.V} {
			if c.inS.Add(int32(x)) {
				c.nodes = append(c.nodes, x)
			}
		}
	}
	for i, ends := 0, len(c.nodes); i < ends; i++ {
		for _, w := range g.NeighborsView(c.nodes[i]) {
			if c.inS.Add(int32(w)) {
				c.nodes = append(c.nodes, w)
			}
		}
	}
	dropped := 0
	for _, v := range c.nodes {
		ids := g.IncidentArcIDsView(v)
		for i, a := range g.IncidentArcsView(v) {
			// An arc with both endpoints in S is dropped once, from its
			// smaller endpoint.
			if w := a.From + a.To - v; w < v && c.inS.Has(int32(w)) {
				continue
			}
			c.conflicts[ids[i]] = nil
			dropped++
		}
	}
	c.dropped.Store(true)
	c.patches.Add(1)
	c.patchedArcs.Add(uint64(dropped))
}

// CacheStatsSnapshot reports the lifetime work of a graph's conflict cache:
// full row-set builds, incremental patches, and rows dropped by patches.
type CacheStatsSnapshot struct {
	Builds      uint64
	Patches     uint64
	PatchedArcs uint64
}

// CacheStats returns the conflict cache's maintenance counters for g,
// creating (and syncing) the cache if needed. Counters reset when the
// cache itself is discarded (a non-patched mutation or deserialization).
func CacheStats(g *graph.Graph) CacheStatsSnapshot {
	c := cacheOf(g)
	return CacheStatsSnapshot{
		Builds:      c.builds.Load(),
		Patches:     c.patches.Load(),
		PatchedArcs: c.patchedArcs.Load(),
	}
}

// rowBuilder computes conflict rows in (From, To) order without sorting
// arcs. By Conflict, the row of a = (f,t) is every arc (x,y) ≠ a with
//
//	x ∈ T = {f,t} ∪ N(t)   (shares an endpoint, or x is heard at t), or
//	y ∈ H = {f,t} ∪ N(f)   (shares an endpoint, or f is heard at y).
//
// Every such arc has its tail in T ∪ N(H), so the builder collects those
// tails once — deduplicated with generation stamps, then sorted as ints —
// and walks each tail's out-row, which the topology cache keeps sorted by
// head: whole for a tail in T, filtered by "head ∈ H" otherwise. Tails in
// increasing order with heads increasing within each tail is exactly the
// (From, To) order. Membership is one stamp read per arc: no map, no
// binary search, no arc comparison.
//
// A builder is single-threaded scratch: the conflict cache owns one and
// uses it under its mutex, for full builds and dropped rows; the hypothetical-arc path of ConflictingArcs
// borrows one from builderPool.
type rowBuilder struct {
	tail  []uint32 // per node: gen-1 once collected into T, gen once collected from N(H)
	head  []uint32 // per node: gen-1 while in H
	gen   uint32   // stamp of the row being built; advances by 2 per row
	tails []int
	buf   []int32
}

var builderPool = sync.Pool{New: func() any { return new(rowBuilder) }}

// fit sizes the stamp arrays for an n-node graph.
func (rb *rowBuilder) fit(n int) {
	if len(rb.tail) < n {
		rb.tail = make([]uint32, n)
		rb.head = make([]uint32, n)
		rb.gen = 0
	}
}

// appendRow appends the ids of the sorted conflict row of a, whose own id
// is self (-1 for an arc outside g), to dst. The cost is one visit per
// neighbor of each node in {f} ∪ N(f) (collecting N(H)), one per out-arc of
// each collected tail (emission), and an int sort of the tails —
// O(Σ_{y∈H} deg y + Σ_{x∈T∪N(H)} deg x + |tails|·log|tails|).
func (rb *rowBuilder) appendRow(g *graph.Graph, a graph.Arc, self int32, dst []int32) []int32 {
	if rb.gen > math.MaxUint32-2 {
		clear(rb.tail)
		clear(rb.head)
		rb.gen = 0
	}
	rb.gen += 2
	inT, inN := rb.gen-1, rb.gen
	f, t := a.From, a.To
	nf, nt := g.NeighborsView(f), g.NeighborsView(t)

	rb.tails = rb.tails[:0]
	rb.collect(inT, inT, f)
	rb.collect(inT, inT, t)
	rb.collect(inT, inT, nt...)
	rb.head[f], rb.head[t] = inT, inT
	for _, y := range nf {
		rb.head[y] = inT
	}
	// Tails of arcs into H. N(t) ⊆ T already, so t's neighbors are skipped.
	rb.collect(inT, inN, nf...)
	for _, y := range nf {
		if y != t {
			rb.collect(inT, inN, g.NeighborsView(y)...)
		}
	}
	slices.Sort(rb.tails)

	for _, x := range rb.tails {
		ids := g.OutArcIDsView(x)
		if rb.tail[x] == inT {
			for _, b := range ids {
				if b != self {
					dst = append(dst, b)
				}
			}
			continue
		}
		for i, y := range g.NeighborsView(x) {
			if rb.head[y] == inT {
				dst = append(dst, ids[i])
			}
		}
	}
	return dst
}

// collect stamps each not-yet-collected node of xs with s and records it as
// a tail of the row whose first stamp is inT.
func (rb *rowBuilder) collect(inT, s uint32, xs ...int) {
	for _, x := range xs {
		if rb.tail[x] < inT {
			rb.tail[x] = s
			rb.tails = append(rb.tails, x)
		}
	}
}

// row returns a's conflict row as an exact-size copy (nil when empty).
func (rb *rowBuilder) row(g *graph.Graph, a graph.Arc, self int32) []int32 {
	rb.buf = rb.appendRow(g, a, self, rb.buf[:0])
	if len(rb.buf) == 0 {
		return nil
	}
	row := make([]int32, len(rb.buf))
	copy(row, rb.buf)
	return row
}

// conflictIDs returns the id row of a: the cached row when a is an arc of
// g, else a fresh one computed without touching the cache (callers probing
// hypothetical links).
func conflictIDs(g *graph.Graph, a graph.Arc) []int32 {
	if i, ok := g.ArcIndex(a); ok {
		return cacheOf(g).row(int32(i))
	}
	rb := builderPool.Get().(*rowBuilder)
	rb.fit(g.N())
	row := rb.row(g, a, -1)
	builderPool.Put(rb)
	return row
}

// ConflictingArcs returns every arc of g that conflicts with a, sorted, as
// a fresh slice (nil when there is none). Per Lemma 6 this set has at most
// 2Δ²-1 members: arcs touching a's endpoints, out-arcs of a.To's neighbors
// and in-arcs of a.From's neighbors. It reads the per-graph conflict cache
// and converts the row's ids to arcs; the maintenance path reads the id
// rows directly.
func ConflictingArcs(g *graph.Graph, a graph.Arc) []graph.Arc {
	ids := conflictIDs(g, a)
	if len(ids) == 0 {
		return nil
	}
	arcOf := g.ArcsByIDView()
	out := make([]graph.Arc, len(ids))
	for i, id := range ids {
		out[i] = arcOf[id]
	}
	return out
}

// Assignment maps each arc of the bi-directed graph to a color (time slot).
type Assignment map[graph.Arc]int

// NewAssignment returns an empty assignment sized for every arc of g. Use
// NewAssignmentSized when the expected table is a local or pruned view much
// smaller than the full graph — pre-sizing per-node tables at 2*g.M() wastes
// memory quadratically across n nodes.
func NewAssignment(g *graph.Graph) Assignment {
	return make(Assignment, 2*g.M())
}

// NewAssignmentSized returns an empty assignment pre-sized for about `arcs`
// entries.
func NewAssignmentSized(arcs int) Assignment {
	return make(Assignment, arcs)
}

// Color returns the color of a, or None.
func (as Assignment) Color(a graph.Arc) int { return as[a] }

// Set colors arc a with c (c must be >= 1).
func (as Assignment) Set(a graph.Arc, c int) {
	if c < 1 {
		panic(fmt.Sprintf("coloring: invalid color %d for %v", c, a))
	}
	as[a] = c
}

// NumColors returns the largest color in use, i.e. the TDMA frame length.
// It is not the number of colors used: crash/rejoin runs can retire colors
// and leave gaps, so report DistinctColors alongside it where they can
// diverge.
func (as Assignment) NumColors() int {
	max := 0
	for _, c := range as {
		if c > max {
			max = c
		}
	}
	return max
}

// DistinctColors returns the number of distinct colors in use. For complete
// fault-free greedy colorings every color below the maximum is used
// somewhere (the arc that picked the max saw all smaller colors occupied),
// so DistinctColors == NumColors; after crashes discard part of a schedule
// the remaining colors can have gaps and DistinctColors < NumColors.
func (as Assignment) DistinctColors() int {
	seen := make(map[int]struct{}, 16)
	for _, c := range as {
		if c != None {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// Complete reports whether every arc of g is colored.
func (as Assignment) Complete(g *graph.Graph) bool {
	for _, a := range g.ArcsView() {
		if as[a] == None {
			return false
		}
	}
	return true
}

// Clone returns a copy of the assignment.
func (as Assignment) Clone() Assignment {
	c := make(Assignment, len(as))
	for a, col := range as {
		c[a] = col
	}
	return c
}

// Violation describes a pair of same-colored conflicting arcs.
type Violation struct {
	A, B  graph.Arc
	Color int
}

func (v Violation) String() string {
	return fmt.Sprintf("arcs %v and %v both use slot %d", v.A, v.B, v.Color)
}

// Verify checks that as is a complete, feasible FDLSP schedule for g: every
// arc colored and no two conflicting arcs share a color. It returns all
// violations found (uncolored arcs are reported as a violation with B equal
// to A and Color None): the uncolored arcs in (From, To) order, then per
// color ascending every conflicting pair of that color, ordered by its
// first and then its second member.
//
// Verify reads only the adjacency, not the conflict cache, so it stays an
// independent check of the cache's consumers. By Conflict, the arcs
// conflicting with a = (f,t) are those with a tail in T = {f,t} ∪ N(t) or
// a head in H = {f,t} ∪ N(f); per color class, a per-node index of the
// class's arcs by tail and by head lists them in O(|T| + |H|) lookups.
func Verify(g *graph.Graph, as Assignment) []Violation {
	var viols []Violation
	type coloredArc struct {
		c int
		a graph.Arc
	}
	var colored []coloredArc
	for _, a := range g.ArcsView() {
		c := as[a]
		if c == None {
			viols = append(viols, Violation{A: a, B: a, Color: None})
			continue
		}
		colored = append(colored, coloredArc{c, a})
	}
	slices.SortFunc(colored, func(x, y coloredArc) int {
		if x.c != y.c {
			return cmp.Compare(x.c, y.c)
		}
		return graph.CompareArcs(x.a, y.a)
	})
	ix := newClassIndex(g.N())
	var class []graph.Arc
	for lo := 0; lo < len(colored); {
		c := colored[lo].c
		class = class[:0]
		for ; lo < len(colored) && colored[lo].c == c; lo++ {
			class = append(class, colored[lo].a)
		}
		viols = ix.violations(g, class, c, viols)
	}
	return viols
}

// classIndex locates one color class's arcs by tail and by head. The class
// is sorted by (From, To), so each tail's arcs form a position range; each
// head's arcs form a linked list of positions in increasing order. Per-node
// entries are valid only while their stamp equals the current class's.
type classIndex struct {
	stamp    []uint32
	gen      uint32
	tailLo   []int32
	tailHi   []int32 // -1: no arc of the class leaves the node
	headNext []int32 // per class position: the next position with its head, or -1
	headFst  []int32 // per node: the first position with it as head, or -1
	cand     []int32
}

func newClassIndex(n int) *classIndex {
	return &classIndex{
		stamp:   make([]uint32, n),
		tailLo:  make([]int32, n),
		tailHi:  make([]int32, n),
		headFst: make([]int32, n),
	}
}

// touch makes x's entries current, empty if x is new to this class.
func (ix *classIndex) touch(x int) {
	if ix.stamp[x] != ix.gen {
		ix.stamp[x] = ix.gen
		ix.tailHi[x] = -1
		ix.headFst[x] = -1
	}
}

// violations indexes class (sorted, all colored c) and appends its
// conflicting pairs to viols.
func (ix *classIndex) violations(g *graph.Graph, class []graph.Arc, c int, viols []Violation) []Violation {
	ix.gen++
	ix.headNext = slices.Grow(ix.headNext[:0], len(class))[:len(class)]
	// Descending, so head lists come out ascending.
	for j := len(class) - 1; j >= 0; j-- {
		b := class[j]
		ix.touch(b.From)
		ix.touch(b.To)
		if ix.tailHi[b.From] < 0 {
			ix.tailHi[b.From] = int32(j + 1)
		}
		ix.tailLo[b.From] = int32(j)
		ix.headNext[j] = ix.headFst[b.To]
		ix.headFst[b.To] = int32(j)
	}
	for i, a := range class {
		// T is {t} ∪ N(t) and H is {f} ∪ N(f): f ∈ N(t) and t ∈ N(f).
		ix.cand = ix.cand[:0]
		ix.tails(a.To, i)
		for _, x := range g.NeighborsView(a.To) {
			ix.tails(x, i)
		}
		ix.heads(a.From, i)
		for _, y := range g.NeighborsView(a.From) {
			ix.heads(y, i)
		}
		slices.Sort(ix.cand)
		for k, j := range ix.cand {
			if k == 0 || ix.cand[k-1] != j {
				viols = append(viols, Violation{A: a, B: class[j], Color: c})
			}
		}
	}
	return viols
}

// tails collects the class positions after i whose arc leaves x.
func (ix *classIndex) tails(x, i int) {
	if ix.stamp[x] != ix.gen {
		return
	}
	for j := max(ix.tailLo[x], int32(i+1)); j < ix.tailHi[x]; j++ {
		ix.cand = append(ix.cand, j)
	}
}

// heads collects the class positions after i whose arc enters y.
func (ix *classIndex) heads(y, i int) {
	if ix.stamp[y] != ix.gen {
		return
	}
	for j := ix.headFst[y]; j >= 0; j = ix.headNext[j] {
		if int(j) > i {
			ix.cand = append(ix.cand, j)
		}
	}
}

// Valid reports whether as is a complete and feasible schedule for g.
func Valid(g *graph.Graph, as Assignment) bool { return len(Verify(g, as)) == 0 }

// SlotTable is the slot storage AssignGreedyLocal reads and writes: an
// Assignment, or a protocol node's table of the arcs it can know about.
// Color returns None for an uncolored arc; Set is only called on arcs Color
// reported uncolored, with a color >= 1.
type SlotTable interface {
	Color(a graph.Arc) int
	Set(a graph.Arc, c int)
}

// occupancy borrows a cleared color-occupancy buffer for a conflict row of
// the given length. The answer of a smallest-free-slot search is at most
// len+1 (pigeonhole), so the buffer covers colors 0..len+1.
func (c *conflictCache) occupancy(rowLen int) *[]bool {
	n := rowLen + 2
	bufp := c.scratch.Get().(*[]bool)
	if cap(*bufp) < n {
		*bufp = make([]bool, n)
	} else {
		*bufp = (*bufp)[:n]
		clear(*bufp)
	}
	return bufp
}

// lowestFree returns the smallest color >= 1 not marked in used and puts
// the buffer back.
func (c *conflictCache) lowestFree(bufp *[]bool) int {
	used := *bufp
	res := len(used) - 1
	for col := 1; col < len(used); col++ {
		if !used[col] {
			res = col
			break
		}
	}
	c.scratch.Put(bufp)
	return res
}

// smallestFeasible returns the smallest color >= 1 not used by any arc
// conflicting with a under the (possibly partial) knowledge know. cc is g's
// synced conflict cache and arcOf its arc-by-id table.
func smallestFeasible(g *graph.Graph, cc *conflictCache, arcOf []graph.Arc, know SlotTable, a graph.Arc) int {
	var row []int32
	if id, ok := g.ArcIndex(a); ok {
		row = cc.row(int32(id))
	} else {
		row = conflictIDs(g, a)
	}
	bufp := cc.occupancy(len(row))
	used := *bufp
	for _, b := range row {
		if c := know.Color(arcOf[b]); c != None && c < len(used) {
			used[c] = true
		}
	}
	return cc.lowestFree(bufp)
}

// smallestFree is smallestFeasible on a dense slot store: the smallest
// color >= 1 no arc of id's conflict row holds in slots.
func (c *conflictCache) smallestFree(slots []int32, id int32) int32 {
	row := c.row(id)
	bufp := c.occupancy(len(row))
	used := *bufp
	for _, b := range row {
		if col := slots[b]; col != None && int(col) < len(used) {
			used[col] = true
		}
	}
	return int32(c.lowestFree(bufp))
}

// AssignGreedyLocal colors each arc of arcs (in order, skipping already
// colored ones) with the smallest color feasible against the colors recorded
// in know, writing the result into know. It returns the newly colored arcs.
// This is the per-node coloring step shared by DistMIS and the DFS
// algorithm: know is the node's distance-2 color knowledge.
//
// Coloring never mutates g, so the conflict cache is resolved once, at the
// first arc to color, and serves the whole call.
func AssignGreedyLocal(g *graph.Graph, know SlotTable, arcs []graph.Arc) []graph.Arc {
	var colored []graph.Arc
	var cc *conflictCache
	var arcOf []graph.Arc
	for _, a := range arcs {
		if know.Color(a) != None {
			continue
		}
		if cc == nil {
			cc, arcOf = cacheOf(g), g.ArcsByIDView()
		}
		know.Set(a, smallestFeasible(g, cc, arcOf, know, a))
		colored = append(colored, a)
	}
	return colored
}

// Greedy sequentially colors every arc of g in the given order (all arcs of
// g, by default in lexicographic order when order is nil) with the smallest
// feasible color. This is the greedyColor reference algorithm of Lemma 9:
// it uses at most 2Δ² colors (Lemma 6) and is therefore a Δ-approximation
// (Theorem 2). order must list arcs of g. The coloring runs on a dense slot
// store and is converted to an Assignment once at the end.
func Greedy(g *graph.Graph, order []graph.Arc) Assignment {
	cc := cacheOf(g)
	slots := make([]int32, g.ArcIDBound())
	color := func(id int32) {
		if slots[id] == None {
			slots[id] = cc.smallestFree(slots, id)
		}
	}
	if order == nil {
		for v := 0; v < g.N(); v++ {
			for _, id := range g.OutArcIDsView(v) {
				color(id)
			}
		}
	}
	for _, a := range order {
		id, ok := g.ArcIndex(a)
		if !ok {
			panic(fmt.Sprintf("coloring: Greedy order holds %v, not an arc of %v", a, g))
		}
		color(int32(id))
	}
	return AssignmentOf(g, slots)
}

// SlotsOf returns as as a dense slot store of g: entry id holds the slot of
// the arc with stable id id (graph.ArcIndex), None for an uncolored arc or
// a free id. The store has g.ArcIDBound() entries; arcs of as that are not
// arcs of g are left out, and a slot outside [0, MaxInt32] becomes -1.
func SlotsOf(g *graph.Graph, as Assignment) []int32 {
	slots := make([]int32, g.ArcIDBound())
	for v := 0; v < g.N(); v++ {
		ids := g.OutArcIDsView(v)
		for i, a := range g.OutArcsView(v) {
			c := as[a]
			if c < 0 || c > math.MaxInt32 {
				c = -1
			}
			slots[ids[i]] = int32(c)
		}
	}
	return slots
}

// AssignmentOf returns the Assignment of a dense slot store of g: every
// live arc with a slot.
func AssignmentOf(g *graph.Graph, slots []int32) Assignment {
	as := NewAssignment(g)
	for v := 0; v < g.N(); v++ {
		ids := g.OutArcIDsView(v)
		for i, a := range g.OutArcsView(v) {
			if c := slots[ids[i]]; c != None {
				as[a] = int(c)
			}
		}
	}
	return as
}

// ConflictGraph builds the conflict graph G' of Lemma 6: one vertex per arc
// of g, an edge between two vertices when their arcs conflict. It returns
// the graph and the arc corresponding to each vertex. Any proper vertex
// coloring of the result is a feasible FDLSP schedule for g.
func ConflictGraph(g *graph.Graph) (*graph.Graph, []graph.Arc) {
	arcs := g.Arcs()
	// Vertex numbering follows the sorted arc list, not graph.ArcIndex:
	// stable arc ids drift from sorted positions once the topology has been
	// patched, and the conflict graph's vertices must stay position-keyed.
	pos := make([]int, g.ArcIDBound())
	for i, a := range arcs {
		id, _ := g.ArcIndex(a)
		pos[id] = i
	}
	cc := cacheOf(g)
	cg := graph.New(len(arcs))
	for i, a := range arcs {
		id, _ := g.ArcIndex(a)
		for _, b := range cc.row(int32(id)) {
			if j := pos[b]; i < j {
				cg.AddEdge(i, j)
			}
		}
	}
	return cg, arcs
}
